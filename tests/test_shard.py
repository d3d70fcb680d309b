"""Tests for graph sharding: exact edge tiling, mega-vertices, halos, budgets,
and the shard sets a graph keeps."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.engines import registry
from repro.graph import csr
from repro.graph.csr import SHARD_BYTES_PER_GRAPH, CSRGraph
from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.graph.properties import best_source
from repro.graph.shard import (
    GraphShard,
    halo_map,
    per_shard_budgets,
    shard_graph,
)

from conftest import TEST_SCALE, make_spec_for


def assert_tiles_exactly(graph, shards):
    """Shards must reproduce the global edge array exactly, in order."""
    assert shards[0].e_lo == 0
    assert shards[-1].e_hi == graph.n_edges
    for a, b in zip(shards, shards[1:]):
        assert a.e_hi == b.e_lo
    rebuilt = np.concatenate([s.graph.indices for s in shards]) \
        if shards else np.array([], dtype=graph.indices.dtype)
    assert np.array_equal(rebuilt, graph.indices)
    # Per-vertex degrees sum across shards to the global degree — the
    # mega-vertex property: a vertex split mid-edge-list contributes part
    # of its degree to each side, never dropping or duplicating an edge.
    deg_sum = np.sum([s.local_degree() for s in shards], axis=0)
    assert np.array_equal(deg_sum, graph.out_degree())


class TestShardGraph:
    def test_every_shard_keeps_full_vertex_set(self, small_rmat):
        shards = shard_graph(small_rmat, 4)
        assert len(shards) == 4
        for s in shards:
            assert s.graph.n_vertices == small_rmat.n_vertices
            assert s.n_shards == 4

    def test_tiles_exactly(self, small_rmat):
        assert_tiles_exactly(small_rmat, shard_graph(small_rmat, 4))

    def test_single_shard_is_whole_graph(self, small_rmat):
        (s,) = shard_graph(small_rmat, 1)
        assert s.n_local_edges == small_rmat.n_edges
        assert np.array_equal(s.graph.indices, small_rmat.indices)
        assert s.boundary_vertices.size == 0

    def test_shard_names_are_distinct(self, small_rmat):
        names = {s.graph.name for s in shard_graph(small_rmat, 3)}
        assert len(names) == 3

    def test_weighted_graph_keeps_weights_aligned(self, small_rmat):
        weighted = small_rmat.with_random_weights(high=64)
        shards = shard_graph(weighted, 3)
        rebuilt = np.concatenate([s.graph.weights for s in shards])
        assert np.array_equal(rebuilt, weighted.weights)

    def test_mega_vertex_regression(self):
        """A star hub whose edge list dwarfs every shard slice must split
        mid-edge-list without dropping or duplicating a single edge."""
        hub = star_graph(40)  # vertex 0 owns ~all edges
        shards = shard_graph(hub, 4)
        assert_tiles_exactly(hub, shards)
        # The hub appears (with partial degree) in several shards...
        holders = [s for s in shards if s.local_degree()[0] > 0]
        assert len(holders) > 1
        # ...and is a boundary (halo) vertex of each shard it crosses.
        for s in holders:
            assert 0 in s.boundary_vertices

    def test_local_degree_is_slice_overlap(self, small_rmat):
        starts = small_rmat.indptr[:-1]
        ends = small_rmat.indptr[1:]
        for s in shard_graph(small_rmat, 4):
            # A vertex's local degree is exactly how much of its global
            # edge interval falls inside [e_lo, e_hi) — zero for foreign
            # vertices, so global frontier masks self-filter per shard.
            expected = (np.clip(ends, s.e_lo, s.e_hi)
                        - np.clip(starts, s.e_lo, s.e_hi))
            assert np.array_equal(s.local_degree(), expected)

    @given(st.integers(1, 12), st.integers(0, 3))
    def test_property_tiles_for_any_shard_count(self, n_shards, seed):
        graph = rmat_graph(7, 900 + 137 * seed, seed=seed)
        shards = shard_graph(graph, n_shards)
        assert len(shards) == n_shards
        assert_tiles_exactly(graph, shards)

    def test_rejects_invalid_count(self, small_rmat):
        with pytest.raises(ValueError):
            shard_graph(small_rmat, 0)


class TestPerShardBudgets:
    def test_budgets_sum_to_total(self, small_rmat):
        shards = shard_graph(small_rmat, 4)
        budgets = per_shard_budgets(shards, 1_000_003)
        assert sum(budgets) == 1_000_003
        assert all(b >= 1 for b in budgets)

    def test_budgets_track_shard_size(self, small_rmat):
        shards = shard_graph(small_rmat, 3)
        budgets = per_shard_budgets(shards, 999_999)
        sizes = [s.local_edge_bytes for s in shards]
        # Proportionality within the integer-rounding slack.
        for b, size in zip(budgets, sizes):
            expected = size / sum(sizes) * 999_999
            assert abs(b - expected) <= len(shards) + 1

    def test_deterministic(self, small_rmat):
        shards = shard_graph(small_rmat, 5)
        assert per_shard_budgets(shards, 12345) == \
            per_shard_budgets(shards, 12345)

    def test_rejects_nonpositive_total(self, small_rmat):
        shards = shard_graph(small_rmat, 2)
        with pytest.raises(ValueError):
            per_shard_budgets(shards, 0)


class TestHaloMap:
    def test_maps_every_shard(self, small_rmat):
        shards = shard_graph(small_rmat, 4)
        halos = halo_map(shards)
        assert sorted(halos) == [0, 1, 2, 3]
        for s in shards:
            assert np.array_equal(halos[s.shard_id], s.boundary_vertices)

    def test_boundary_vertices_cross_slice_edges(self, small_rmat):
        for s in shard_graph(small_rmat, 4):
            starts = small_rmat.indptr[:-1]
            ends = small_rmat.indptr[1:]
            for v in s.boundary_vertices:
                # The global edge extent sticks out of [e_lo, e_hi)...
                assert starts[v] < s.e_lo or ends[v] > s.e_hi
                # ...while the vertex still owns local edges here.
                assert s.local_degree()[v] > 0


def fresh(graph):
    """The same graph as a new object, with nothing memoized on it."""
    return CSRGraph(graph.indptr, graph.indices, graph.weights,
                    graph.directed, graph.name)


class TestKeptShardSets:
    """A graph keeps the shard sets its sharded runs built, under
    ``SHARD_BYTES_PER_GRAPH``; a pickled graph carries none of them."""

    def _run(self, graph, devices=4):
        engine = registry.create("Sharded", spec=make_spec_for(graph),
                                 data_scale=TEST_SCALE, devices=devices)
        engine.run(graph, make_program("BFS", source=best_source(graph)))
        return engine._shards

    def test_a_set_under_the_bound_comes_back_as_the_same_objects(
            self, small_rmat):
        graph = fresh(small_rmat)
        first = self._run(graph)
        kept = graph.shards(4)
        assert kept is not None and all(a is b for a, b in zip(first, kept))
        # What the run built on the shard graphs rode along and is counted.
        assert all(s.graph._chunk_maps for s in kept)
        assert sum(s.nbytes for s in kept) \
            > sum(s.graph.indptr.nbytes for s in kept)
        assert all(a is b for a, b in zip(self._run(graph), first))

    def test_a_set_over_the_bound_is_rebuilt(self):
        graph = path_graph(40_000)
        shards = shard_graph(graph, 4)
        assert sum(s.nbytes for s in shards) > SHARD_BYTES_PER_GRAPH
        graph.keep_shards(shards)
        assert graph.shards(4) is None

    def test_least_recently_used_sets_go_first(self, small_rmat, monkeypatch):
        graph = fresh(small_rmat)
        sets = {n: shard_graph(graph, n) for n in (1, 2, 3)}
        size = {n: sum(s.nbytes for s in sets[n]) for n in sets}
        monkeypatch.setattr(csr, "SHARD_BYTES_PER_GRAPH", size[2] + size[3])
        graph.keep_shards(sets[2])
        graph.keep_shards(sets[3])
        assert graph.shards(2) is not None  # 3 is now the least recent
        graph.keep_shards(sets[1])
        assert graph.shards(3) is None
        assert graph.shards(2)[0] is sets[2][0]
        assert graph.shards(1)[0] is sets[1][0]

    def test_pickled_graph_carries_no_kept_set(self, small_rmat):
        graph = fresh(small_rmat)
        before = len(pickle.dumps(graph))
        graph.keep_shards(shard_graph(graph, 4))
        assert graph.shards(4) is not None
        assert len(pickle.dumps(graph)) == before
        assert pickle.loads(pickle.dumps(graph)).shards(4) is None
