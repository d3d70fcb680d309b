"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    rmat_graph,
    social_graph,
    star_graph,
    web_graph,
)
from repro.graph.properties import degree_gini, locality_fraction

from conftest import assert_graph_valid, neighbors


class TestRMAT:
    def test_shape(self):
        g = rmat_graph(8, 3000, seed=1)
        assert g.n_vertices == 256
        assert g.n_edges == 6000  # undirected default: both arcs stored

    def test_undirected_doubles_arcs(self):
        g = rmat_graph(6, 100, directed=False, seed=1)
        assert g.n_edges == 200

    def test_directed_exact_arcs(self):
        g = rmat_graph(6, 100, directed=True, seed=1)
        assert g.n_edges == 100

    def test_deterministic(self):
        a = rmat_graph(8, 1000, seed=5, directed=True)
        b = rmat_graph(8, 1000, seed=5, directed=True)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = rmat_graph(8, 1000, seed=5, directed=True)
        b = rmat_graph(8, 1000, seed=6, directed=True)
        assert not np.array_equal(a.indices, b.indices)

    def test_degree_skew(self):
        g = rmat_graph(11, 40000, seed=2, directed=True)
        # RMAT must be visibly more skewed than uniform random.
        er = erdos_renyi_graph(2048, 40000, seed=2)
        assert degree_gini(g) > degree_gini(er) + 0.15

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(5, 10, a=0.7, b=0.3, c=0.2)

    def test_valid(self):
        assert_graph_valid(rmat_graph(9, 5000, seed=3))


class TestWebGraph:
    def test_shape_and_direction(self):
        g = web_graph(1000, 8000, seed=1)
        assert g.n_vertices == 1000
        assert g.n_edges == 8000
        assert g.directed

    def test_strong_locality(self):
        g = web_graph(5000, 40000, seed=2)
        assert locality_fraction(g, window=256) > 0.7

    def test_deterministic(self):
        a = web_graph(500, 4000, seed=9)
        b = web_graph(500, 4000, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_deep_bfs(self, small_web):
        from repro.algorithms import BFS
        from repro.graph.properties import best_source

        levels = BFS(source=best_source(small_web)).run_reference(small_web)
        # The whole point of the preset: crawl-like depth, not 5 hops.
        assert levels.max() > 20

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            web_graph(10, 10, frac_long=1.5)
        with pytest.raises(ValueError):
            web_graph(10, 10, alpha=0.0)
        with pytest.raises(ValueError):
            web_graph(10, 10, window=0)

    def test_valid(self):
        assert_graph_valid(web_graph(300, 2000, seed=4))


class TestSocialGraph:
    def test_undirected(self, small_social):
        assert not small_social.directed
        fwd = sorted(zip(small_social.edge_sources().tolist(), small_social.indices.tolist()))
        rev = sorted(zip(small_social.indices.tolist(), small_social.edge_sources().tolist()))
        assert fwd == rev

    def test_hub_skew(self, small_social):
        assert degree_gini(small_social) > 0.25

    def test_arc_count(self):
        g = social_graph(400, 3000, seed=7)
        assert g.n_edges == 6000  # both arcs

    def test_deterministic(self):
        a = social_graph(300, 2000, seed=3)
        b = social_graph(300, 2000, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_moderate_depth(self, small_social):
        from repro.algorithms import BFS
        from repro.graph.properties import best_source

        levels = BFS(source=best_source(small_social)).run_reference(small_social)
        assert 3 <= levels.max() < 200

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            social_graph(10, 10, hub_exponent=-1)


class TestDeterministicGraphs:
    def test_path(self):
        g = path_graph(5)
        assert g.n_edges == 4
        assert list(neighbors(g, 2)) == [3]
        assert neighbors(g, 4).size == 0

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.n_edges == 4
        assert list(neighbors(g, 3)) == [0]

    def test_star(self):
        g = star_graph(6)
        assert g.out_degree()[0] == 5
        assert g.n_edges == 5

    def test_grid_degrees(self):
        g = grid_graph(3, 4)
        deg = g.out_degree()
        # Undirected grid: corners 2, edges 3, interior 4.
        assert deg.min() == 2 and deg.max() == 4
        assert g.n_edges == 2 * (3 * 3 + 2 * 4)

    def test_complete(self):
        g = complete_graph(5)
        assert g.n_edges == 20
        assert np.all(g.out_degree() == 4)

    def test_erdos_renyi_shape(self):
        g = erdos_renyi_graph(100, 500, seed=1)
        assert g.n_vertices == 100
        assert g.n_edges == 500
