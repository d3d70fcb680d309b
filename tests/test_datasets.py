"""Tests for the named scaled datasets (Table 3 analogues)."""

import numpy as np
import pytest

from repro.graph.datasets import (
    DATASETS,
    DEFAULT_SCALE,
    PAPER_GPU_MEMORY_BYTES,
    load_dataset,
    rmat_dataset,
)

from conftest import assert_graph_valid

SCALE = 2e-4  # small enough for fast tests


class TestRegistry:
    def test_all_table3_datasets_present(self):
        assert set(DATASETS) == {"GS", "FK", "FS", "UK"}

    def test_paper_counts_match_table3(self):
        assert DATASETS["GS"].paper_edges == 1_800_000_000
        assert DATASETS["FK"].paper_vertices == 68_350_000
        assert DATASETS["FS"].paper_edges == 3_610_000_000
        assert DATASETS["UK"].paper_vertices == 106_860_000

    def test_directedness_matches_table3(self):
        assert DATASETS["GS"].directed and DATASETS["UK"].directed
        assert not DATASETS["FK"].directed and not DATASETS["FS"].directed


class TestLoading:
    @pytest.mark.parametrize("abbr", ["GS", "FK", "FS", "UK"])
    def test_load_valid(self, abbr):
        ds = load_dataset(abbr, scale=SCALE)
        assert_graph_valid(ds.graph)
        assert ds.graph.name == abbr

    def test_scaled_counts(self):
        ds = load_dataset("FK", scale=SCALE)
        spec = DATASETS["FK"]
        n_expect = int(spec.paper_vertices * SCALE)
        assert ds.graph.n_vertices == n_expect
        # Undirected edges stored as two arcs: arc count ≈ paper edges × scale
        # (±1 for the halving round-trip).
        assert abs(ds.graph.n_edges - int(spec.paper_edges * SCALE)) <= 2

    def test_directed_flag_propagates(self):
        assert load_dataset("UK", scale=SCALE).graph.directed
        assert not load_dataset("FK", scale=SCALE).graph.directed

    def test_gpu_memory_scales_with_data(self):
        ds = load_dataset("GS", scale=SCALE)
        assert ds.gpu_memory_bytes == int(PAPER_GPU_MEMORY_BYTES * SCALE)

    def test_weighted_doubles_edge_bytes(self):
        """SSSP's view carries 4-byte weights: twice the BFS view's edge
        bytes, as the paper notes (§4.1)."""
        from repro.harness.experiments import make_workload

        plain = make_workload("GS", "BFS", scale=SCALE).graph
        weighted = make_workload("GS", "SSSP", scale=SCALE).graph
        assert weighted.edge_array_bytes == 2 * plain.edge_array_bytes

    def test_deterministic(self):
        a = load_dataset("UK", scale=SCALE).graph
        b = load_dataset("UK", scale=SCALE).graph
        assert np.array_equal(a.indices, b.indices)

    def test_unknown_abbreviation(self):
        with pytest.raises(ValueError, match="'XX'; choose from GS, FK, FS, UK"):
            load_dataset("XX")

    @pytest.mark.parametrize("name", ["RMAT-xB", "RMAT--1B"])
    def test_malformed_rmat_name(self, name):
        with pytest.raises(ValueError, match=f"malformed RMAT dataset name '{name}'"):
            load_dataset(name, scale=5e-5)

    def test_social_ids_are_shuffled(self):
        """KONECT/SNAP-style shuffling: active sets spread over the edge
        array (the Fig. 2 uniformity the §3.3 sizing relies on)."""
        from repro.graph.properties import locality_fraction

        ds = load_dataset("FK", scale=SCALE)
        assert locality_fraction(ds.graph, window=256) < 0.2

    def test_web_ids_keep_crawl_order(self):
        from repro.graph.properties import locality_fraction

        ds = load_dataset("UK", scale=SCALE)
        assert locality_fraction(ds.graph, window=256) > 0.5

    def test_memory_dataset_ratio_preserved(self):
        """The defining experimental condition: dataset:GPU-memory ratio at
        any scale matches the paper-scale ratio."""
        for abbr in DATASETS:
            ds = load_dataset(abbr, scale=SCALE)
            scaled_ratio = ds.graph.dataset_bytes / ds.gpu_memory_bytes
            paper_edge_bytes = DATASETS[abbr].paper_edges * 4
            paper_vertex_bytes = DATASETS[abbr].paper_vertices * 24
            paper_ratio = (paper_edge_bytes + paper_vertex_bytes) / PAPER_GPU_MEMORY_BYTES
            assert scaled_ratio == pytest.approx(paper_ratio, rel=0.05)


class TestRMATFamily:
    def test_sizes(self):
        ds = rmat_dataset(2.5e9, scale=1e-4)
        assert ds.spec.paper_edges == int(2.5e9)
        assert abs(ds.graph.n_edges - int(2.5e9 * 1e-4)) <= 2

    def test_vertex_interpolation(self):
        lo = rmat_dataset(2.5e9, scale=1e-4)
        hi = rmat_dataset(12e9, scale=1e-4)
        assert lo.spec.paper_vertices == pytest.approx(40e6, rel=0.01)
        assert hi.spec.paper_vertices == pytest.approx(100e6, rel=0.01)

    def test_abbr(self):
        assert rmat_dataset(5e9, scale=5e-5).spec.abbr == "RMAT-5B"

    def test_a_spec_names_an_rmat_member(self):
        """``RMAT-<x>B`` is a dataset name: a spec naming it runs on the
        graph :func:`rmat_dataset` builds."""
        from repro.harness.experiments import workload_for_spec
        from repro.runner import RunSpec

        got = workload_for_spec(RunSpec("RMAT-5B", "BFS", "Ascetic",
                                        scale=2e-5)).graph
        want = rmat_dataset(5e9, scale=2e-5).graph
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


class TestMultiScaleConsistency:
    @pytest.mark.parametrize("abbr", ["FK", "UK"])
    def test_structure_stable_across_scales(self, abbr):
        """Scaling changes size, not structure: degree skew and locality
        stay put, and counts track the scale linearly."""
        from repro.graph.properties import degree_gini, locality_fraction

        small = load_dataset(abbr, scale=5e-5)
        large = load_dataset(abbr, scale=2e-4)
        assert large.graph.n_edges == pytest.approx(
            4 * small.graph.n_edges, rel=0.02
        )
        assert degree_gini(large.graph) == pytest.approx(
            degree_gini(small.graph), abs=0.12
        )
        # Locality must be measured with a window proportional to n to be
        # scale-invariant (a fixed window covers a bigger id-share of a
        # smaller graph).
        loc = lambda ds: locality_fraction(ds.graph, window=ds.graph.n_vertices // 50)
        assert loc(large) == pytest.approx(loc(small), abs=0.15)

    def test_gpu_memory_tracks_scale(self):
        a = load_dataset("GS", scale=5e-5)
        b = load_dataset("GS", scale=2e-4)
        assert b.gpu_memory_bytes == pytest.approx(4 * a.gpu_memory_bytes, rel=0.01)
