"""Tests for vertex reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponents, make_program
from repro.graph.generators import erdos_renyi_graph, star_graph
from repro.graph.properties import best_source
from repro.graph.reorder import bfs_order, degree_order, random_order, relabel


class TestPermutations:
    def test_degree_order_puts_hub_first(self, small_social):
        perm = degree_order(small_social)
        hub = best_source(small_social)
        assert perm[hub] == 0

    def test_degree_order_monotone(self, small_social):
        perm = degree_order(small_social)
        g2 = relabel(small_social, perm)
        deg = g2.out_degree()
        assert np.all(np.diff(deg) <= 0)

    def test_degree_order_ascending(self, small_social):
        perm = degree_order(small_social, descending=False)
        g2 = relabel(small_social, perm)
        assert np.all(np.diff(g2.out_degree()) >= 0)

    def test_bfs_order_source_first(self, small_web):
        src = best_source(small_web)
        perm = bfs_order(small_web, source=src)
        assert perm[src] == 0

    def test_bfs_order_levels_monotone(self, small_web):
        from repro.algorithms.bfs import BFS

        src = best_source(small_web)
        perm = bfs_order(small_web, source=src)
        levels = BFS(source=src).run_reference(small_web)
        reached = levels >= 0
        new_ids = perm[reached]
        lv = levels[reached]
        order = np.argsort(new_ids)
        assert np.all(np.diff(lv[order]) >= 0)

    def test_random_order_deterministic(self, small_social):
        assert np.array_equal(
            random_order(small_social, seed=5), random_order(small_social, seed=5)
        )

    def test_all_are_permutations(self, small_social):
        n = small_social.n_vertices
        for perm in (
            degree_order(small_social),
            bfs_order(small_social),
            random_order(small_social, seed=1),
        ):
            assert np.array_equal(np.sort(perm), np.arange(n))


class TestRelabel:
    def test_isomorphic_results(self, small_social):
        """The relabeled graph computes the permuted-identical answer."""
        perm = degree_order(small_social)
        g2 = relabel(small_social, perm)
        labels1 = ConnectedComponents().run_reference(small_social)
        labels2 = ConnectedComponents().run_reference(g2)
        # Same partition of vertices: components map 1:1 through perm.
        for comp in np.unique(labels1):
            members = np.nonzero(labels1 == comp)[0]
            assert len(np.unique(labels2[perm[members]])) == 1

    def test_preserves_counts_and_weights(self, small_social):
        g = small_social.with_random_weights(seed=2)
        g2 = relabel(g, random_order(g, seed=3))
        assert g2.n_edges == g.n_edges
        assert sorted(g2.weights.tolist()) == sorted(g.weights.tolist())
        assert g2.directed == g.directed

    def test_invalid_permutation(self, tiny_path):
        with pytest.raises(ValueError):
            relabel(tiny_path, np.zeros(tiny_path.n_vertices, dtype=np.int64))
        with pytest.raises(ValueError):
            relabel(tiny_path, np.arange(3))

    @given(st.integers(0, 100))
    @settings(max_examples=10)
    def test_property_bfs_levels_permute(self, seed):
        g = erdos_renyi_graph(30, 120, seed=seed)
        perm = random_order(g, seed=seed + 1)
        g2 = relabel(g, perm)
        src = seed % g.n_vertices
        from repro.algorithms import BFS

        lv1 = BFS(source=src).run_reference(g)
        lv2 = BFS(source=int(perm[src])).run_reference(g2)
        assert np.array_equal(lv2[perm], lv1)


class TestReorderingAndAscetic:
    def test_layout_near_neutral_for_spread_activity(self, small_social):
        """The §5 conjecture at layout level: with per-iteration activity
        spread evenly (PR), relayouts shift Ascetic's processing traffic
        only modestly — the Static Region's value is its size, not which
        bytes it holds."""
        from conftest import TEST_SCALE, make_spec_for
        from repro.core.ascetic import AsceticEngine

        spec = make_spec_for(small_social, edge_fraction=0.4)
        cfg = dict(fill="front", adaptive=False)

        def processing_bytes(graph):
            res = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg).run(
                graph, make_program("PR", tol=1e-2)
            )
            return res.processing_bytes_h2d

        xs = [
            processing_bytes(relabel(small_social, random_order(small_social, seed=9))),
            processing_bytes(relabel(small_social, degree_order(small_social))),
            processing_bytes(relabel(small_social, bfs_order(small_social))),
        ]
        assert (max(xs) - min(xs)) / min(xs) < 0.35
