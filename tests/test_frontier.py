"""Tests for frontier expansion — the shared superstep primitive."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.frontier import active_edge_count, expand_frontier
from repro.graph.generators import rmat_graph


def brute_expand(graph, active):
    srcs, poss = [], []
    for v in np.nonzero(active)[0]:
        for e in range(graph.indptr[v], graph.indptr[v + 1]):
            srcs.append(v)
            poss.append(e)
    return np.array(srcs, dtype=np.int64), np.array(poss, dtype=np.int64)


class TestExpand:
    def test_empty_frontier(self, small_rmat):
        active = np.zeros(small_rmat.n_vertices, dtype=bool)
        exp = expand_frontier(small_rmat, active)
        assert exp.n_edges == 0

    def test_full_frontier_is_all_edges(self, small_rmat):
        active = np.ones(small_rmat.n_vertices, dtype=bool)
        exp = expand_frontier(small_rmat, active)
        assert exp.n_edges == small_rmat.n_edges
        assert np.array_equal(exp.positions, np.arange(small_rmat.n_edges))

    def test_single_vertex(self, small_rmat):
        v = int(np.argmax(small_rmat.out_degree()))
        active = np.zeros(small_rmat.n_vertices, dtype=bool)
        active[v] = True
        exp = expand_frontier(small_rmat, active)
        assert np.all(exp.sources == v)
        lo, hi = small_rmat.indptr[v], small_rmat.indptr[v + 1]
        assert np.array_equal(exp.positions, np.arange(lo, hi))

    def test_zero_degree_vertices_skipped(self, tiny_star):
        active = np.ones(tiny_star.n_vertices, dtype=bool)
        exp = expand_frontier(tiny_star, active)
        assert np.all(exp.sources == 0)

    def test_wrong_shape_rejected(self, tiny_path):
        with pytest.raises(ValueError):
            expand_frontier(tiny_path, np.zeros(3, dtype=bool))

    def test_positions_sorted(self, small_rmat):
        rng = np.random.default_rng(0)
        active = rng.random(small_rmat.n_vertices) < 0.3
        exp = expand_frontier(small_rmat, active)
        assert np.all(np.diff(exp.positions) > 0)

    @given(st.integers(0, 2**32 - 1))
    def test_property_matches_bruteforce(self, bits):
        g = rmat_graph(5, 200, seed=13, directed=True)
        active = np.array(
            [(bits >> (i % 32)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        exp = expand_frontier(g, active)
        bs, bp = brute_expand(g, active)
        assert np.array_equal(exp.sources, bs)
        assert np.array_equal(exp.positions, bp)
        assert active_edge_count(g, active) == bp.size


class TestActiveEdgeCount:
    def test_empty(self, small_rmat):
        assert active_edge_count(small_rmat, np.zeros(small_rmat.n_vertices, bool)) == 0

    def test_all(self, small_rmat):
        assert (
            active_edge_count(small_rmat, np.ones(small_rmat.n_vertices, bool))
            == small_rmat.n_edges
        )

    def test_matches_expansion_without_materializing(self, small_web):
        rng = np.random.default_rng(1)
        active = rng.random(small_web.n_vertices) < 0.1
        assert active_edge_count(small_web, active) == expand_frontier(
            small_web, active
        ).n_edges


class TestFrontierCache:
    """The per-iteration memo behind ``ProgramState.frontier()``."""

    def test_matches_uncached(self, small_rmat):
        from repro.algorithms.frontier import FrontierCache

        rng = np.random.default_rng(7)
        mask = rng.random(small_rmat.n_vertices) < 0.25
        cache = FrontierCache()
        exp = cache.expansion(small_rmat, mask)
        ref = expand_frontier(small_rmat, mask)
        assert np.array_equal(exp.sources, ref.sources)
        assert np.array_equal(exp.positions, ref.positions)
        assert cache.edge_count(small_rmat, mask) == ref.n_edges

    def test_hit_returns_same_object(self, small_rmat):
        from repro.algorithms.frontier import FrontierCache

        mask = np.ones(small_rmat.n_vertices, dtype=bool)
        cache = FrontierCache()
        assert cache.expansion(small_rmat, mask) is cache.expansion(
            small_rmat, mask
        )

    def test_new_mask_object_invalidates(self, small_rmat):
        from repro.algorithms.frontier import FrontierCache

        cache = FrontierCache()
        full = np.ones(small_rmat.n_vertices, dtype=bool)
        assert cache.edge_count(small_rmat, full) == small_rmat.n_edges
        # A *different* mask object with different content recomputes.
        empty = np.zeros(small_rmat.n_vertices, dtype=bool)
        assert cache.edge_count(small_rmat, empty) == 0

    def test_vertices_includes_zero_degree(self, small_rmat):
        from repro.algorithms.frontier import FrontierCache

        mask = np.ones(small_rmat.n_vertices, dtype=bool)
        vs, counts = FrontierCache().vertices(small_rmat, mask)
        assert vs.size == small_rmat.n_vertices
        assert counts.sum() == small_rmat.n_edges


class TestProgramStateFrontier:
    def test_state_accessors_consistent(self, small_web):
        from repro.algorithms import make_program

        prog = make_program("CC")
        state = prog.init_state(small_web)
        exp = state.frontier(small_web)
        assert state.active_edges(small_web) == exp.n_edges
        vs, counts = state.active_vertices(small_web)
        assert counts.sum() == exp.n_edges

    def test_pickle_drops_cache_and_recovers(self, small_web):
        import pickle

        from repro.algorithms import make_program

        prog = make_program("CC")
        state = prog.init_state(small_web)
        before = state.active_edges(small_web)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.active_edges(small_web) == before


def _fill_expansion(vs, starts, counts, sources, positions) -> None:
    """The expansion walk as a scalar kernel, kept as the test oracle.

    Writes ``sources``/``positions`` in CSR order — the same int64 values
    the vectorized repeat/arange path produces, by construction.
    """
    k = 0
    for i in range(vs.size):
        v = vs[i]
        s = starts[i]
        for j in range(counts[i]):
            sources[k] = v
            positions[k] = s + j
            k += 1


class TestScalarKernelOracle:
    """The scalar walk must write the exact int64 buffers the vectorized
    repeat/arange path produces — the two are interchangeable by
    construction."""

    @staticmethod
    def _run_scalar(graph, active):
        from repro.algorithms.frontier import _walk_mask

        vs, starts, counts = _walk_mask(graph, active)
        nz = counts > 0
        vs, starts, counts = vs[nz], starts[nz], counts[nz]
        total = int(counts.sum())
        sources = np.empty(total, dtype=np.int64)
        positions = np.empty(total, dtype=np.int64)
        _fill_expansion(vs, starts, counts, sources, positions)
        return sources, positions

    @given(st.integers(0, 2**32 - 1))
    def test_property_scalar_equals_vectorized(self, bits):
        g = rmat_graph(5, 200, seed=13, directed=True)
        active = np.array(
            [(bits >> (i % 32)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        exp = expand_frontier(g, active)
        srcs, poss = self._run_scalar(g, active)
        assert srcs.dtype == exp.sources.dtype == np.int64
        assert np.array_equal(srcs, exp.sources)
        assert np.array_equal(poss, exp.positions)

    def test_empty_and_full(self, small_rmat):
        for active in (np.zeros(small_rmat.n_vertices, dtype=bool),
                       np.ones(small_rmat.n_vertices, dtype=bool)):
            exp = expand_frontier(small_rmat, active)
            srcs, poss = self._run_scalar(small_rmat, active)
            assert np.array_equal(srcs, exp.sources)
            assert np.array_equal(poss, exp.positions)
