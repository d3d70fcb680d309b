"""Tests for edge-array partitioning (the PT substrate)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, star_graph
from repro.graph.partition import (
    partition_by_bytes,
    partition_by_vertex_ranges,
    partitions_of_vertices,
)


def check_cover(graph, parts):
    """Partitions must tile the edge array exactly, in order."""
    assert parts[0].e_lo == 0
    assert parts[-1].e_hi == graph.n_edges
    for a, b in zip(parts, parts[1:]):
        assert a.e_hi == b.e_lo
    assert [p.pid for p in parts] == list(range(len(parts)))


class TestPartitionByBytes:
    def test_single_partition_when_fits(self, small_rmat):
        parts = partition_by_bytes(small_rmat, small_rmat.edge_array_bytes + 100)
        assert len(parts) == 1
        check_cover(small_rmat, parts)

    def test_budget_respected(self, small_rmat):
        budget = small_rmat.edge_array_bytes // 7
        parts = partition_by_bytes(small_rmat, budget)
        check_cover(small_rmat, parts)
        for p in parts:
            assert p.nbytes <= budget

    def test_vertex_alignment(self, small_rmat):
        budget = small_rmat.edge_array_bytes // 5
        parts = partition_by_bytes(small_rmat, budget)
        boundaries = {int(x) for x in small_rmat.indptr}
        for p in parts:
            # Boundaries land on vertex starts unless a mega-vertex split.
            if p.v_hi - p.v_lo > 1:
                assert p.e_lo in boundaries and p.e_hi in boundaries

    def test_mega_vertex_split(self):
        g = star_graph(1000)  # vertex 0 owns 999 edges
        budget = 100 * g.bytes_per_edge
        parts = partition_by_bytes(g, budget)
        check_cover(g, parts)
        assert all(p.nbytes <= budget for p in parts)
        assert len([p for p in parts if p.n_edges > 0]) == 10

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 3)
        parts = partition_by_bytes(g, 1024)
        assert len(parts) == 1
        assert parts[0].n_edges == 0

    def test_invalid_budget(self, tiny_path):
        with pytest.raises(ValueError):
            partition_by_bytes(tiny_path, 0)

    @given(st.integers(1, 50))
    def test_property_cover_any_budget(self, budget_edges):
        g = rmat_graph(7, 900, seed=11, directed=True)
        parts = partition_by_bytes(g, budget_edges * g.bytes_per_edge)
        check_cover(g, parts)
        for p in parts:
            assert p.n_edges <= max(budget_edges, 1)


class TestPartitionByVertexRanges:
    def test_equal_edges(self, small_rmat):
        parts = partition_by_vertex_ranges(small_rmat, 4)
        check_cover(small_rmat, parts)
        sizes = [p.n_edges for p in parts]
        assert max(sizes) - min(sizes) <= small_rmat.n_edges // 4 + 1

    def test_one_part(self, small_rmat):
        parts = partition_by_vertex_ranges(small_rmat, 1)
        assert len(parts) == 1
        check_cover(small_rmat, parts)

    def test_invalid(self, tiny_path):
        with pytest.raises(ValueError):
            partition_by_vertex_ranges(tiny_path, 0)

    def test_mega_vertex_splits_mid_edge_list(self):
        # Regression: a hub whose edge list exceeds the per-part slice
        # must be split across parts with no edge dropped or duplicated
        # (the bounds are edge indices, not vertex boundaries).
        hub = star_graph(40)  # vertex 0 owns ~all edges
        parts = partition_by_vertex_ranges(hub, 4)
        check_cover(hub, parts)
        sizes = [p.n_edges for p in parts]
        assert max(sizes) - min(sizes) <= 1
        # The hub's edges land in more than one part.
        holders = [p for p in parts
                   if p.e_lo < hub.out_degree()[0] and p.e_hi > 0]
        assert len(holders) > 1

    @given(st.integers(1, 16), st.integers(0, 6))
    def test_property_cover_any_count(self, n_parts, seed):
        graph = rmat_graph(6, 400 + 97 * seed, seed=seed)
        parts = partition_by_vertex_ranges(graph, n_parts)
        assert len(parts) == n_parts
        check_cover(graph, parts)


class TestPartitionsOfVertices:
    def _brute(self, graph, parts, active):
        touched = np.zeros(len(parts), dtype=bool)
        for v in np.nonzero(active)[0]:
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            if hi == lo:
                continue  # degree-0 vertex owns no edge bytes
            for i, p in enumerate(parts):
                if lo < p.e_hi and hi > p.e_lo:
                    touched[i] = True
        return touched

    def test_no_active(self, small_rmat):
        parts = partition_by_bytes(small_rmat, small_rmat.edge_array_bytes // 4)
        active = np.zeros(small_rmat.n_vertices, dtype=bool)
        assert not partitions_of_vertices(small_rmat, parts, active).any()

    def test_all_active_touches_all(self, small_rmat):
        parts = partition_by_bytes(small_rmat, small_rmat.edge_array_bytes // 4)
        active = np.ones(small_rmat.n_vertices, dtype=bool)
        assert partitions_of_vertices(small_rmat, parts, active).all()

    def test_zero_degree_vertex_touches_nothing(self):
        g = CSRGraph.from_edges([0], [1], 3)
        parts = partition_by_bytes(g, 1024)
        active = np.zeros(3, dtype=bool)
        active[2] = True  # isolated vertex
        assert not partitions_of_vertices(g, parts, active).any()

    @given(st.integers(0, 2**30 - 1), st.integers(2, 12))
    def test_property_matches_bruteforce(self, mask_bits, n_parts):
        g = rmat_graph(5, 300, seed=9, directed=True)
        parts = partition_by_vertex_ranges(g, n_parts)
        active = np.array(
            [(mask_bits >> (i % 30)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        got = partitions_of_vertices(g, parts, active)
        expect = self._brute(g, parts, active)
        assert np.array_equal(got, expect)
