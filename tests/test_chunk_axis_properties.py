"""The segment chunk axis is equivalent to the dense one — as a property.

Touch counts, the §3.4 hotness table and Hybrid's per-chunk policy are
computed on chunk-map *segments* (runs of chunks between vertex-span
boundaries).  The naive chunk-length implementations they replaced live in
``chunk_axis_oracles.py``; here hypothesis drives both over random graphs,
chunk sizes below one edge (1–3 B, the down-scaled regime) and above many
vertices (≥ 4 KB), random active masks and multi-iteration histories, and
requires the same answer chunk for chunk.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chunk_axis_oracles import (DenseHotnessTable, dense_hybrid_plan,
                                dense_touch_counts)
from repro.core.replacement import HotnessTable
from repro.core.static_region import StaticRegion
from repro.engines.base import AccessPath, RunPlan
from repro.engines.hybrid import HybridPolicy
from repro.gpusim.device import GPUSpec
from repro.graph.csr import ChunkRuns, CSRGraph, grant_in_order


@st.composite
def geometries(draw):
    """``(graph, chunk_bytes, rng)``: hub-skewed random graph + chunk size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        # Chunks smaller than one edge: every vertex spans several chunks.
        n, m = draw(st.integers(2, 40)), draw(st.integers(1, 150))
        chunk_bytes = draw(st.sampled_from([1, 2, 3]))
    else:
        # Chunks holding many vertices, hubs spanning several chunks.
        n, m = draw(st.integers(20, 300)), draw(st.integers(3000, 7000))
        chunk_bytes = draw(st.sampled_from([4096, 8192]))
    src = (rng.random(m) ** 3 * n).astype(np.int64)  # power-law sources
    graph = CSRGraph.from_edges(src, rng.integers(0, n, m), n)
    if draw(st.booleans()):
        graph = graph.with_random_weights(seed=1)  # 8 B edges
    return graph, chunk_bytes, rng


def random_mask(rng, n):
    return rng.random(n) < rng.choice([0.03, 0.3, 0.8])


def lazy_region(graph, chunk_bytes, capacity_fraction=0.6):
    return StaticRegion(
        graph, capacity_bytes=int(graph.edge_array_bytes * capacity_fraction),
        chunk_bytes=chunk_bytes, fill="lazy")


class TestGeometry:
    @given(geometries())
    def test_segments_partition_the_chunk_axis(self, geometry):
        graph, chunk_bytes, _ = geometry
        cmap = graph.chunk_map(chunk_bytes)
        assert cmap.seg_bounds[0] == 0 and cmap.seg_bounds[-1] == cmap.n_chunks
        assert (cmap.seg_len > 0).all()
        assert cmap.n_segments <= min(2 * graph.n_vertices + 1, cmap.n_chunks)
        has = cmap.has_edges
        assert np.array_equal(cmap.seg_bounds[cmap.s_lo[has]], cmap.c_lo[has])
        assert np.array_equal(cmap.seg_bounds[cmap.s_hi[has] + 1],
                              cmap.c_hi[has] + 1)

    def test_runs_cut_expand_and_grant(self):
        runs = ChunkRuns(np.array([2, 10, 20]), np.array([6, 14, 21]))
        assert list(runs.ids()) == [2, 3, 4, 5, 10, 11, 12, 13, 20]
        pieces, origin = runs.cut(np.array([0, 2, 4, 6, 12, 13, 30]))
        assert list(pieces.starts) == [2, 4, 10, 12, 13, 20]
        assert list(pieces.ends) == [4, 6, 12, 13, 14, 21]
        assert list(origin) == [0, 0, 1, 1, 1, 2]
        # Budget 6 over runs visited last-to-first: 1 + 4 whole, 1 of 4.
        granted = grant_in_order(runs.lengths, np.array([2, 1, 0]), 6)
        assert list(granted) == [1, 4, 1]
        compressed, first = ChunkRuns.from_ids(
            np.array([3, 4, 5, 9, 10]), np.array([1, 1, 2, 2, 2]))
        assert list(compressed.starts) == [3, 5, 9]
        assert list(compressed.ends) == [5, 6, 11]
        assert list(first) == [0, 2, 3]


class TestTouchCounts:
    @given(geometries())
    def test_segment_counts_repeat_to_the_dense_counts(self, geometry):
        graph, chunk_bytes, rng = geometry
        region = lazy_region(graph, chunk_bytes)
        cmap = region.chunk_map
        for _ in range(3):
            active = random_mask(rng, graph.n_vertices)
            oracle = dense_touch_counts(cmap, active)
            seg = region.segment_touch_counts(active)
            assert np.array_equal(np.repeat(seg, cmap.seg_len), oracle)
            assert np.array_equal(region.chunk_touch_counts(active), oracle)
            run_s, run_e = region.touched_chunk_runs(active)
            merged = cmap.segment_runs(seg > 0)
            assert np.array_equal(merged.starts, run_s)
            assert np.array_equal(merged.ends, run_e)


class TestHotnessTable:
    @given(geometries(),
           st.sampled_from([("last", 0), ("last", 1), ("cumulative", 0),
                            ("cumulative", 1), ("cumulative", 3)]),
           st.integers(1, 12), st.sampled_from([1, 2, 4, 7, 64]))
    def test_segment_table_equals_dense_table(self, geometry, policy,
                                              n_iterations, fragment):
        graph, chunk_bytes, rng = geometry
        region = lazy_region(graph, chunk_bytes)
        cmap = region.chunk_map
        table = HotnessTable(cmap.n_chunks, policy=policy[0],
                             stale_threshold=policy[1],
                             chunk_map=cmap)
        oracle = DenseHotnessTable(cmap.n_chunks, policy=policy[0],
                                   stale_threshold=policy[1])
        n_frags = -(-cmap.n_chunks // fragment)
        for it in range(n_iterations):
            active = random_mask(rng, graph.n_vertices)
            if it % 2:
                table.update_runs(*region.touched_chunk_runs(active))
            else:
                table.update(region.segment_touch_counts(active))
            oracle.update(dense_touch_counts(cmap, active))
            assert np.array_equal(table.cumulative, oracle.cumulative)
            assert np.array_equal(table.last, oracle.last)
            assert np.array_equal(table.staleness(), oracle.staleness())
            assert np.array_equal(table.hotness(), oracle.hotness())
            probe = rng.integers(0, cmap.n_chunks, size=5)
            assert np.array_equal(table.cumulative_at(probe),
                                  oracle.cumulative[probe])
            # Residency per fragment: full / absent / mixed, so both
            # candidate kinds exist and the planner gets past its early out.
            state = rng.integers(0, 3, size=n_frags)
            resident = np.repeat(state == 0, fragment)[:cmap.n_chunks]
            mixed = np.repeat(state == 2, fragment)[:cmap.n_chunks]
            resident = resident | (mixed & (rng.random(cmap.n_chunks) < 0.5))
            budget = int(rng.integers(0, 4 * fragment + 2))
            plan = table.plan_swaps(resident, budget, fragment_chunks=fragment)
            evict, load = oracle.plan_swaps(resident, budget,
                                            fragment_chunks=fragment)
            assert np.array_equal(plan.evict, evict)
            assert np.array_equal(plan.load, load)


class TestRegionKeepsFragmentsCurrent:
    """Every residency mutation keeps the region's per-fragment counts and
    its candidate flag exact, so the §3.4 planner never recounts."""

    @given(geometries(), st.sampled_from(["front", "rear", "random", "lazy"]),
           st.sampled_from([1, 2, 4, 7, 64]),
           st.lists(st.sampled_from(["plan", "swap", "top_up", "shrink",
                                     "promote"]), min_size=1, max_size=8))
    def test_mutations_keep_counts_flags_and_plans_exact(
            self, geometry, fill, fragment, ops):
        graph, chunk_bytes, rng = geometry
        region = StaticRegion(
            graph, capacity_bytes=int(graph.edge_array_bytes * rng.random()),
            chunk_bytes=chunk_bytes, fill=fill, fragment_chunks=fragment)
        cmap = region.chunk_map
        table = HotnessTable(cmap.n_chunks, chunk_map=cmap)
        oracle = DenseHotnessTable(cmap.n_chunks)
        bounds = np.arange(0, cmap.n_chunks, fragment, dtype=np.int64)
        sizes = np.minimum(fragment, cmap.n_chunks - bounds)
        counts = region.fragment_resident_counts(fragment)  # warm
        for op in ops:
            active = random_mask(rng, graph.n_vertices)
            table.update(region.segment_touch_counts(active))
            oracle.update(dense_touch_counts(cmap, active))
            budget = int(rng.integers(0, 4 * fragment + 2))
            plan = table.plan_swaps(region.resident, budget, fragment,
                                    resident_counts=counts,
                                    candidates=region.fragment_candidates)
            evict, load = oracle.plan_swaps(region.resident, budget,
                                            fragment_chunks=fragment)
            assert np.array_equal(plan.evict, evict)
            assert np.array_equal(plan.load, load)
            if op == "plan":
                region.swap(plan.evict, plan.load)
            elif op == "swap":
                resident = np.flatnonzero(region.resident)
                out = resident[rng.random(resident.size) < 0.3]
                absent = np.flatnonzero(~region.resident)
                room = region.free_chunks + out.size
                region.swap(out, rng.permutation(absent)[:room])
            elif op == "top_up":
                region.top_up(int(rng.integers(0, 2 * fragment + 1)))
            elif op == "shrink":  # also grows: capacity up to 1.5x
                region.shrink_to(int(region.capacity_chunks * chunk_bytes
                                     * 1.5 * rng.random()))
            else:
                region.promote_vertices(random_mask(rng, graph.n_vertices))
            # The same array, brought up to date — not a recount.
            assert region.fragment_resident_counts(fragment) is counts
            fresh = np.add.reduceat(region.resident, bounds, dtype=np.int64)
            assert np.array_equal(counts, fresh)
            assert region.fragment_candidates == bool(
                (fresh == sizes).any() and (fresh == 0).any())
            assert region.resident_chunks <= region.capacity_chunks


def _hybrid_setup(graph, chunk_bytes, rng, reuse_horizon):
    region = lazy_region(graph, chunk_bytes)
    policy = HybridPolicy(GPUSpec(memory_bytes=1 << 20), region,
                          chunk_bytes=16384, reuse_horizon=reuse_horizon)
    table = HotnessTable(region.n_chunks, policy="cumulative",
                         stale_threshold=reuse_horizon,
                         chunk_map=region.chunk_map)
    return region, policy, table


def _check_plans(policy, region, table, active, use_touch, use_hot):
    """The run plan equals the per-chunk oracle, chunk for chunk.

    Without ``use_touch`` every touched segment counts one active vertex;
    without ``use_hot`` the policy sees a table with no history.
    """
    cmap = region.chunk_map
    touch = dense_touch_counts(cmap, active)
    ids = np.nonzero(touch)[0]
    oracle = dense_hybrid_plan(
        policy, ids, touch[ids] if use_touch else None,
        table.cumulative if use_hot else None)
    seg_touch = region.segment_touch_counts(active)
    touched = np.nonzero(seg_touch)[0]
    if not touched.size:
        return None
    hot = table if use_hot else HotnessTable(
        region.n_chunks, policy="cumulative", chunk_map=cmap)
    counts = seg_touch[touched] if use_touch else np.ones(touched.size)
    plan = policy.plan(cmap.segments(touched), counts, hot)
    assert isinstance(plan, RunPlan)
    assert plan.paths.dtype == np.int8
    assert np.array_equal(plan.runs.ids(), ids)
    assert np.array_equal(np.repeat(plan.paths, plan.runs.lengths), oracle)
    assert np.array_equal(
        np.repeat(seg_touch[touched][plan.origin], plan.runs.lengths),
        touch[ids])
    return plan


class TestHybridPolicy:
    @given(geometries(), st.integers(1, 8), st.integers(0, 12),
           st.lists(st.sampled_from(["migrate", "shrink", "evict"]),
                    max_size=4),
           st.sampled_from([0.0, 2048.0, 8192.0, 16384.0]),
           st.booleans(), st.booleans())
    def test_run_plan_equals_per_chunk_plan(self, geometry, reuse_horizon,
                                            n_history, mutations,
                                            bytes_per_touch, use_touch,
                                            use_hot):
        graph, chunk_bytes, rng = geometry
        region, policy, table = _hybrid_setup(graph, chunk_bytes, rng,
                                              reuse_horizon)
        for _ in range(n_history):
            table.update(region.segment_touch_counts(
                random_mask(rng, graph.n_vertices)))
        none = np.empty(0, dtype=np.int64)
        for op in mutations:
            if op == "migrate":
                # A budget-truncated migration: whatever ids fit, cutting
                # segments anywhere.
                want = np.nonzero(~region.resident
                                  & (rng.random(region.n_chunks) < 0.4))[0]
                region.swap(none, want[:max(region.free_chunks, 0)])
            elif op == "shrink":
                region.shrink_to(int(region.capacity_chunks
                                     * region.chunk_bytes * rng.random()))
            else:
                resident = np.nonzero(region.resident)[0]
                region.swap(resident[rng.random(resident.size) < 0.3], none)
        policy.bytes_per_touch = bytes_per_touch
        active = random_mask(rng, graph.n_vertices)
        n_touched = int(np.count_nonzero(
            dense_touch_counts(region.chunk_map, active)))
        # Mostly below the candidate count, so the overflow path runs.
        policy.migrate_budget = int(rng.integers(0, n_touched // 2 + 2))
        _check_plans(policy, region, table, active, use_touch, use_hot)

    def test_overflow_with_tied_savings_splits_one_run(self):
        """Equal-degree vertices, chunks below one edge: every touched
        segment has the same touch count and history, hence the same
        saving, and a resident block in the middle makes the candidates
        non-adjacent.  The budget covers the first candidate run and two
        chunks of the next: ids are granted lowest-first, exactly one run is
        split, the tail falls to the runner-up path."""
        n, deg = 6, 3
        src = np.repeat(np.arange(n), deg)
        graph = CSRGraph.from_edges(src, (src + 1) % n, n)
        region, policy, table = _hybrid_setup(graph, 1,
                                              np.random.default_rng(0), 8)
        cmap = region.chunk_map
        assert list(cmap.seg_len) == [12] * n  # 3 edges × 4 B per vertex
        active = np.ones(n, dtype=bool)
        for _ in range(8):  # full history: migration amortises 9×
            table.update(region.segment_touch_counts(active))
        # Vertex 1's chunks and half of vertex 3's are already cached.
        region.swap(np.empty(0, dtype=np.int64),
                    np.concatenate((np.arange(12, 24), np.arange(36, 42))))
        policy.bytes_per_touch = 16384.0
        policy.migrate_budget = 12 + 2
        plan = _check_plans(policy, region, table, active, True, True)
        migrate = plan.paths == int(AccessPath.MIGRATE)
        assert list(plan.runs.starts[migrate]) == [0, 24]
        assert list(plan.runs.ends[migrate]) == [12, 26]
        # Input: 6 segments; residency cuts vertex 3's in two; the budget
        # cuts vertex 2's in two.
        assert len(plan.runs) == 6 + 1 + 1
        fallback = set(plan.paths[~migrate]) - {int(AccessPath.RESIDENT)}
        assert len(fallback) == 1 and fallback <= {
            int(AccessPath.GATHER), int(AccessPath.DIRECT)}

    @pytest.mark.parametrize("budget", [0, 5, 10_000])
    def test_budget_extremes(self, budget):
        graph = CSRGraph.from_edges(np.repeat(np.arange(5), 4),
                                    np.tile(np.arange(4), 5), 5)
        region, policy, table = _hybrid_setup(graph, 3,
                                              np.random.default_rng(0), 4)
        active = np.ones(5, dtype=bool)
        for _ in range(4):
            table.update(region.segment_touch_counts(active))
        policy.bytes_per_touch = 16384.0
        policy.migrate_budget = budget
        plan = _check_plans(policy, region, table, active, True, True)
        migrated = int(plan.runs.lengths[
            plan.paths == int(AccessPath.MIGRATE)].sum())
        assert migrated == min(budget, region.n_chunks)
