"""Tests for the per-granule TransferPolicy API.

Every engine expresses its data-movement rule as a policy object whose
per-iteration decisions are emitted into the event log — the same
introspection surface whether the policy is a fixed single path (Subway,
UVM), region residency (Ascetic), a pinned prefix (PT), or the Hybrid
engine's cost-model scores.  The refactor must be observability-only:
lean-mode digests and metrics cannot move.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.ascetic import AsceticEngine
from repro.core.static_region import StaticRegion
from repro.engines.base import (
    AccessPath,
    FixedPolicy,
    PinnedPrefixPolicy,
    RegionPolicy,
    TransferPolicy,
    emit_access_plan,
)
from repro.engines.hybrid import HybridEngine
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.engines.uvm_engine import UVMEngine
from repro.graph.csr import ChunkRuns
from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec, SimulatedGPU

from conftest import TEST_SCALE, make_spec_for

#: engine class → the granule name its access-plan markers carry.
ENGINE_GRANULES = {
    PartitionEngine: "partition",
    UVMEngine: "page",
    SubwayEngine: "round",
    AsceticEngine: "chunk",
    HybridEngine: "chunk",
}


class TestPolicyObjects:
    def test_fixed_policy_uniform(self):
        ids = np.arange(7)
        plan = FixedPolicy(AccessPath.GATHER).plan(0, ids)
        assert plan.dtype == np.int8
        assert (plan == int(AccessPath.GATHER)).all()

    def test_fixed_policy_empty(self):
        assert len(FixedPolicy(AccessPath.DIRECT).plan(0, np.empty(0))) == 0

    def test_pinned_prefix_policy(self):
        plan = PinnedPrefixPolicy(n_pinned=3).plan(0, np.arange(6))
        assert (plan[:3] == int(AccessPath.RESIDENT)).all()
        assert (plan[3:] == int(AccessPath.MIGRATE)).all()

    def test_region_policy_tracks_residency(self, small_web):
        region = StaticRegion(small_web,
                              capacity_bytes=small_web.edge_array_bytes // 2,
                              fill="front", chunk_bytes=4096)
        policy = RegionPolicy(region)
        ids = np.arange(region.n_chunks)
        runs, _ = ChunkRuns.from_ids(ids)

        def paths(iteration):
            plan = policy.plan(iteration, runs)
            return np.repeat(plan.paths, plan.runs.lengths)

        plan = paths(0)
        resident = region.resident[ids]
        assert (plan[resident] == int(AccessPath.RESIDENT)).all()
        assert (plan[~resident] == int(AccessPath.GATHER)).all()
        # Residency is read live: evicting a chunk flips its next plan.
        first = int(np.nonzero(resident)[0][0])
        region.swap(np.array([first]), np.empty(0, dtype=np.int64))
        assert paths(1)[first] == int(AccessPath.GATHER)

    def test_region_policy_answers_runs_with_the_same_plan(self, small_web):
        """Handed ``ChunkRuns`` the policy answers with a ``RunPlan`` that
        expands to the per-id residency rule, every piece wholly one path."""
        region = StaticRegion(small_web,
                              capacity_bytes=small_web.edge_array_bytes // 3,
                              fill="random", chunk_bytes=4096)
        policy = RegionPolicy(region, fallback=AccessPath.DIRECT)
        n = region.n_chunks
        runs = ChunkRuns(np.array([0, n // 4, n // 2]),
                         np.array([n // 8, n // 3, n]))
        plan = policy.plan(0, runs)
        ids = runs.ids()
        assert np.array_equal(plan.runs.ids(), ids)
        assert np.array_equal(np.repeat(plan.paths, plan.runs.lengths),
                              np.where(region.resident[ids],
                                       int(AccessPath.RESIDENT),
                                       int(AccessPath.DIRECT)))
        assert np.array_equal(runs.starts[plan.origin] <= plan.runs.starts,
                              np.ones(len(plan.runs), dtype=bool))

    def test_all_policies_satisfy_protocol(self, small_web):
        region = StaticRegion(small_web, capacity_bytes=1 << 16,
                              fill="lazy", chunk_bytes=4096)
        for policy in (FixedPolicy(AccessPath.DIRECT),
                       PinnedPrefixPolicy(2), RegionPolicy(region)):
            assert isinstance(policy, TransferPolicy)


class TestEmitAccessPlan:
    def _gpu(self, record):
        return SimulatedGPU(GPUSpec(memory_bytes=1 << 20),
                            record_events=record)

    def test_lean_mode_summary_only_no_counters(self):
        gpu = self._gpu(record=False)
        before = gpu.metrics.bytes_h2d, gpu.metrics.bytes_direct
        emit_access_plan(gpu, "X", "chunk", np.arange(4),
                         np.full(4, int(AccessPath.MIGRATE), dtype=np.int8))
        # Markers are counter-less: metrics (and hence digests) cannot move.
        assert (gpu.metrics.bytes_h2d, gpu.metrics.bytes_direct) == before
        assert gpu.events.n_events == 0  # nothing retained in lean mode

    def test_recorded_mode_emits_contiguous_runs(self):
        gpu = self._gpu(record=True)
        ids = np.array([0, 1, 2, 5, 6])
        paths = np.array([1, 1, 2, 2, 2], dtype=np.int8)
        emit_access_plan(gpu, "X", "chunk", ids, paths)
        markers = [e for e in gpu.events.events if e.kind == "access-path"]
        summary = [m for m in markers if m.label == "X:chunk"]
        assert len(summary) == 1
        counts = dict(summary[0].extra)
        assert counts == {"migrate": 2.0, "gather": 3.0}
        # Per-run markers break on path changes AND id gaps: [0,1] migrate,
        # [2] gather, [5,6] gather.
        runs = [(m.label, dict(m.extra)) for m in markers
                if m.label != "X:chunk"]
        assert runs == [
            ("migrate", {"chunk_lo": 0.0, "chunk_hi": 1.0, "n": 2.0}),
            ("gather", {"chunk_lo": 2.0, "chunk_hi": 2.0, "n": 1.0}),
            ("gather", {"chunk_lo": 5.0, "chunk_hi": 6.0, "n": 2.0}),
        ]


@pytest.mark.parametrize("engine_cls", list(ENGINE_GRANULES),
                         ids=[c.name for c in ENGINE_GRANULES])
class TestEveryEngineEmitsItsPlan:
    def _run(self, engine_cls, graph, **kwargs):
        src = best_source(graph)
        eng = engine_cls(spec=make_spec_for(graph), data_scale=TEST_SCALE,
                         **kwargs)
        res = eng.run(graph, make_program("BFS", source=src))
        return eng, res

    def test_policy_is_declared(self, engine_cls, small_social):
        eng, _ = self._run(engine_cls, small_social)
        assert isinstance(eng.transfer_policy, TransferPolicy)

    def test_plan_visible_in_recorded_trace(self, engine_cls, small_social):
        granule = ENGINE_GRANULES[engine_cls]
        _, res = self._run(engine_cls, small_social, record_events=True)
        markers = [e for e in res.event_log.events if e.kind == "access-path"]
        summaries = [m for m in markers
                     if m.label == f"{engine_cls.name}:{granule}"]
        assert summaries, "no per-iteration access-plan summary emitted"
        path_names = {p.name.lower() for p in AccessPath}
        per_run = [m for m in markers if m.label in path_names]
        assert per_run, "no per-granule decision markers in recorded mode"
        for m in per_run:
            extra = dict(m.extra)
            assert extra[f"{granule}_lo"] <= extra[f"{granule}_hi"]
            assert extra["n"] >= 1.0

    def test_recording_does_not_change_the_run(self, engine_cls, small_social):
        """The observability layer is free: lean and recorded runs agree."""
        _, lean = self._run(engine_cls, small_social)
        _, recorded = self._run(engine_cls, small_social, record_events=True)
        assert np.array_equal(lean.values, recorded.values)
        assert lean.elapsed_seconds == recorded.elapsed_seconds
        assert lean.metrics.bytes_h2d == recorded.metrics.bytes_h2d
        assert lean.metrics.bytes_direct == recorded.metrics.bytes_direct


@pytest.mark.parametrize("algo", ["BFS", "PR"])
@pytest.mark.parametrize("engine_cls", [AsceticEngine, HybridEngine],
                         ids=["Ascetic", "Hybrid"])
class TestAccessPlanConservation:
    """Independent check on the access plan (ROADMAP "Independent checks" b).

    The touched chunks of every iteration are recomputed here — active mask
    × chunk map, one chunk at a time — and the emitted plan must account
    for exactly those: nothing planned twice, nothing dropped, nothing
    invented.  Hybrid's migrations must additionally fit the budget in
    force and show up as cache growth plus evictions.
    """

    def _recorded_run(self, engine_cls, graph, algo):
        from chunk_axis_oracles import dense_touch_counts

        eng = engine_cls(spec=make_spec_for(graph, edge_fraction=0.3),
                         data_scale=TEST_SCALE, record_events=True)
        per_iter = {}
        swaps = {}
        now = {"it": None}

        def hook(engine, gpu, graph_, state):
            region = engine._region
            if now["it"] is None:
                real_swap = region.swap

                def spying_swap(evict, load):
                    swaps[now["it"]] = (len(evict), len(load))
                    return real_swap(evict, load)

                region.swap = spying_swap
            else:
                per_iter[now["it"]]["budget"] = getattr(
                    engine.transfer_policy, "migrate_budget", None)
                per_iter[now["it"]]["resident_after"] = region.resident_chunks
            now["it"] = state.iteration
            touch = dense_touch_counts(graph_.chunk_map(region.chunk_bytes),
                                       state.active)
            per_iter[state.iteration] = {
                "touched": np.nonzero(touch)[0],
                "resident_before": region.resident_chunks,
            }

        eng.iteration_hook = hook
        program = (make_program("BFS", source=best_source(graph))
                   if algo == "BFS" else make_program(algo))
        res = eng.run(graph, program)
        last = per_iter[now["it"]]
        last["budget"] = getattr(eng.transfer_policy, "migrate_budget", None)
        last["resident_after"] = eng._region.resident_chunks
        return eng, res, per_iter, swaps

    def test_plan_accounts_for_exactly_the_touched_chunks(
            self, engine_cls, algo, small_social):
        eng, res, per_iter, swaps = self._recorded_run(
            engine_cls, small_social, algo)
        assert len(per_iter) == res.iterations
        path_names = {p.name.lower() for p in AccessPath}
        n_chunks = eng._region.n_chunks
        checked_migrations = 0
        for it, seen in per_iter.items():
            markers = [e for e in res.event_log.events
                       if e.kind == "access-path" and e.iteration == it]
            summaries = [m for m in markers
                         if m.label == f"{engine_cls.name}:chunk"]
            touched = seen["touched"]
            if not touched.size:
                assert not markers
                continue
            assert len(summaries) == 1
            summary = dict(summaries[0].extra)
            assert set(summary) <= path_names
            assert sum(summary.values()) == touched.size
            # Per-run markers tile the touched ids: no gap, no overlap.
            covered = np.zeros(n_chunks, dtype=np.int64)
            per_path = dict.fromkeys(summary, 0.0)
            for m in markers:
                if m.label not in path_names:
                    continue
                extra = dict(m.extra)
                lo, hi = int(extra["chunk_lo"]), int(extra["chunk_hi"])
                assert extra["n"] == hi - lo + 1
                covered[lo:hi + 1] += 1
                per_path[m.label] += extra["n"]
            assert covered.max() == 1
            assert np.array_equal(np.nonzero(covered)[0], touched)
            assert per_path == summary
            if engine_cls is HybridEngine:
                migrated = summary.get("migrate", 0.0)
                evicted, loaded = swaps.get(it, (0, 0))
                assert migrated <= seen["budget"]
                assert migrated == loaded
                assert migrated == (seen["resident_after"]
                                    - seen["resident_before"]) + evicted
                checked_migrations += int(migrated > 0)
        if engine_cls is HybridEngine and algo == "PR":
            assert checked_migrations, "scenario never migrated a chunk"
