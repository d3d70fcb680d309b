"""Tests for SubCSR materialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.engines.subway import OFFSET_BYTES_PER_ACTIVE_VERTEX, SubwayEngine
from repro.graph.generators import rmat_graph
from repro.graph.properties import best_source

from conftest import TEST_SCALE, make_spec_for
from subgraph_oracles import extract_subgraph


class TestExtraction:
    def test_empty_mask(self, small_rmat):
        sub = extract_subgraph(small_rmat, np.zeros(small_rmat.n_vertices, bool))
        assert sub.n_vertices == 0 and sub.n_edges == 0
        assert sub.nbytes == 0

    def test_full_mask_is_whole_graph(self, small_rmat):
        sub = extract_subgraph(small_rmat, np.ones(small_rmat.n_vertices, bool))
        assert sub.n_edges == small_rmat.n_edges
        assert np.array_equal(sub.indices, small_rmat.indices)
        sub.validate_against(small_rmat)

    def test_partial_mask(self, small_rmat):
        rng = np.random.default_rng(5)
        mask = rng.random(small_rmat.n_vertices) < 0.3
        sub = extract_subgraph(small_rmat, mask)
        sub.validate_against(small_rmat)
        assert np.array_equal(sub.vertices, np.nonzero(mask)[0])
        # Compacted adjacency equals per-vertex slices of the original.
        for i, v in enumerate(sub.vertices[:20]):
            got = sub.indices[sub.indptr[i] : sub.indptr[i + 1]]
            assert np.array_equal(got, small_rmat.neighbors(v))

    def test_weighted(self, small_rmat):
        g = small_rmat.with_random_weights(seed=2)
        mask = np.zeros(g.n_vertices, dtype=bool)
        mask[:50] = True
        sub = extract_subgraph(g, mask)
        sub.validate_against(g)
        assert sub.weights is not None

    def test_nbytes_matches_cost_formula(self, small_rmat):
        """The materialized buffer is byte-for-byte what the model charges."""
        rng = np.random.default_rng(7)
        for frac in (0.05, 0.4, 1.0):
            mask = rng.random(small_rmat.n_vertices) < frac
            sub = extract_subgraph(small_rmat, mask)
            expect = (
                sub.n_edges * small_rmat.bytes_per_edge
                + int(mask.sum()) * OFFSET_BYTES_PER_ACTIVE_VERTEX
            )
            assert sub.nbytes == expect

    def test_shape_mismatch(self, tiny_path):
        with pytest.raises(ValueError):
            extract_subgraph(tiny_path, np.zeros(2, bool))

    def test_validate_catches_corruption(self, small_rmat):
        mask = np.ones(small_rmat.n_vertices, dtype=bool)
        sub = extract_subgraph(small_rmat, mask)
        sub.indices[0] += 1
        with pytest.raises(AssertionError):
            sub.validate_against(small_rmat)

    @given(st.integers(0, 2**20 - 1))
    @settings(max_examples=20)
    def test_property_roundtrip(self, bits):
        g = rmat_graph(6, 500, seed=23, directed=True)
        mask = np.array([(bits >> (i % 20)) & 1 for i in range(g.n_vertices)],
                        dtype=bool)
        sub = extract_subgraph(g, mask)
        sub.validate_against(g)
        assert sub.degree().sum() == sub.n_edges
        assert np.all(np.diff(sub.positions) > 0)  # CSR order preserved


class TestMaterializedSubway:
    def test_same_accounting_as_costed_mode(self, small_social):
        """Every frontier, physically built, is byte for byte what Subway
        accounted for it — the cost model is exactly the materialization."""
        engine = SubwayEngine(spec=make_spec_for(small_social, edge_fraction=0.4),
                              data_scale=TEST_SCALE)
        staged = []

        def materialize(_engine, _gpu, graph, state):
            sub = extract_subgraph(graph, state.active)
            sub.validate_against(graph)
            staged.append(sub.nbytes)

        engine.iteration_hook = materialize
        result = engine.run(
            small_social, make_program("BFS", source=best_source(small_social)))
        assert staged == [
            r.n_active_edges * small_social.bytes_per_edge
            + r.n_active_vertices * OFFSET_BYTES_PER_ACTIVE_VERTEX
            for r in result.per_iteration
        ]
        assert result.extra["avg_iteration_bytes"] == (
            sum(staged) / len(staged) * (1.0 / TEST_SCALE))
