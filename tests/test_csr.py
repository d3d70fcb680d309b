"""Unit and property tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.csr import (
    CSRGraph,
    EDGE_INDEX_BYTES,
    VERTEX_STATE_BYTES,
    WEIGHT_BYTES,
)

from conftest import assert_graph_valid, neighbors


def edges_strategy(max_n=30, max_m=120):
    """Random edge lists as (n, src, dst) with valid ids."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_m,
            ),
        )
    )


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 5)
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert neighbors(g, 0).size == 0

    def test_zero_vertex_graph(self):
        g = CSRGraph.from_edges([], [], 0)
        assert g.n_vertices == 0
        assert g.n_edges == 0

    def test_simple_directed(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3)
        assert g.n_edges == 3
        assert list(neighbors(g, 0)) == [1, 2]
        assert list(neighbors(g, 1)) == [2]
        assert list(neighbors(g, 2)) == []

    def test_undirected_materializes_both_arcs(self):
        g = CSRGraph.from_edges([0], [1], 2, directed=False)
        assert g.n_edges == 2
        assert list(neighbors(g, 0)) == [1]
        assert list(neighbors(g, 1)) == [0]

    def test_self_loops_kept(self):
        g = CSRGraph.from_edges([0, 1], [0, 1], 2)
        assert g.n_edges == 2
        assert list(neighbors(g, 0)) == [0]

    def test_parallel_edges_kept_by_default(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        assert g.n_edges == 2

    def test_dedup_removes_duplicates(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 1, 0], 2, dedup=True)
        assert g.n_edges == 2

    def test_dedup_keeps_first_weight(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2, weights=[7, 9], dedup=True)
        assert g.n_edges == 1
        assert g.weights[0] == 7

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [5], 3)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([-1], [0], 3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0, 1], [1], 3)

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [1], 2, weights=[1, 2])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0], dtype=np.int32))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 5]), indices=np.array([0], dtype=np.int32))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([0, 2, 1, 3]),
                indices=np.array([0, 1, 2], dtype=np.int32),
            )

    @given(edges_strategy())
    def test_from_edges_roundtrip(self, data):
        n, pairs = data
        src = [p[0] for p in pairs]
        dst = [p[1] for p in pairs]
        g = CSRGraph.from_edges(src, dst, n)
        assert_graph_valid(g)
        # Multiset of edges is preserved.
        got = sorted(zip(g.edge_sources().tolist(), g.indices.tolist()))
        assert got == sorted(zip(src, dst))

    @given(edges_strategy())
    def test_undirected_symmetry(self, data):
        n, pairs = data
        src = [p[0] for p in pairs]
        dst = [p[1] for p in pairs]
        g = CSRGraph.from_edges(src, dst, n, directed=False)
        fwd = sorted(zip(g.edge_sources().tolist(), g.indices.tolist()))
        rev = sorted(zip(g.indices.tolist(), g.edge_sources().tolist()))
        assert fwd == rev


class TestSizing:
    def test_bytes_per_edge_unweighted(self, tiny_path):
        assert tiny_path.bytes_per_edge == EDGE_INDEX_BYTES

    def test_bytes_per_edge_weighted(self, tiny_path):
        g = tiny_path.with_random_weights()
        assert g.bytes_per_edge == EDGE_INDEX_BYTES + WEIGHT_BYTES

    def test_weights_double_edge_bytes(self, small_rmat):
        # §4.1: "the size of the edge data is doubled for SSSP".
        g = small_rmat.with_random_weights()
        assert g.edge_array_bytes == 2 * small_rmat.edge_array_bytes

    def test_dataset_bytes_composition(self, small_rmat):
        g = small_rmat
        assert g.dataset_bytes == (
            g.n_vertices * VERTEX_STATE_BYTES + g.n_edges * g.bytes_per_edge
        )


class TestNavigation:
    def test_out_degree(self, tiny_star):
        deg = tiny_star.out_degree()
        assert deg[0] == tiny_star.n_vertices - 1
        assert np.all(deg[1:] == 0)

    def test_out_degree_cached(self, tiny_star):
        assert tiny_star.out_degree() is tiny_star.out_degree()

    def test_edge_sources_matches_indptr(self, small_rmat):
        src = small_rmat.edge_sources()
        assert src.size == small_rmat.n_edges
        for v in (0, small_rmat.n_vertices // 2):
            lo, hi = small_rmat.indptr[v], small_rmat.indptr[v + 1]
            assert np.all(src[lo:hi] == v)


class TestTransforms:
    def test_reverse_roundtrip(self, small_web):
        # Double reversal preserves the edge multiset (intra-vertex edge
        # order may legitimately differ).
        rr = small_web.reverse().reverse()
        assert np.array_equal(rr.indptr, small_web.indptr)

        def canon(g):
            s, d = g.edge_sources(), g.indices.astype(np.int64)
            order = np.lexsort((d, s))
            return s[order], d[order]

        for a, b in zip(canon(rr), canon(small_web)):
            assert np.array_equal(a, b)

    def test_reverse_swaps_direction(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        r = g.reverse()
        assert list(neighbors(r, 1)) == [0]
        assert list(neighbors(r, 2)) == [1]

    def test_reverse_carries_weights(self):
        g = CSRGraph.from_edges([0], [1], 2, weights=[9])
        assert g.reverse().weights[0] == 9

    def test_with_weights_shares_structure(self, tiny_path):
        w = np.arange(tiny_path.n_edges, dtype=np.uint32)
        g = tiny_path.with_weights(w)
        assert g.indptr is tiny_path.indptr
        assert np.array_equal(g.weights, w)

    def test_with_random_weights_deterministic(self, tiny_grid):
        a = tiny_grid.with_random_weights(seed=3).weights
        b = tiny_grid.with_random_weights(seed=3).weights
        assert np.array_equal(a, b)

    def test_with_random_weights_range(self, small_rmat):
        w = small_rmat.with_random_weights(low=2, high=5).weights
        assert w.min() >= 2 and w.max() < 5


class TestExports:
    def test_to_networkx_counts(self, tiny_grid):
        g = tiny_grid.to_networkx()
        assert g.number_of_nodes() == tiny_grid.n_vertices
        # Undirected export halves the symmetrized arc count.
        assert g.number_of_edges() == tiny_grid.n_edges // 2

    def test_to_networkx_directed(self, tiny_path):
        g = tiny_path.to_networkx()
        assert g.is_directed()
        assert g.number_of_edges() == tiny_path.n_edges

    def test_to_scipy_shape_and_sum(self, small_web):
        m = small_web.to_scipy()
        assert m.shape == (small_web.n_vertices, small_web.n_vertices)
        assert m.nnz <= small_web.n_edges  # parallel edges merge
        assert m.sum() == small_web.n_edges

    def test_to_scipy_weighted(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2, weights=[3, 4])
        m = g.to_scipy()
        assert m[0, 1] == 3 and m[1, 0] == 4
