"""Tests for the per-granule access plan.

Every engine logs its data-movement decision the same way: when the log
records, it builds one :class:`RunPlan` per superstep from its own rule —
one gathered run of rounds (Subway), direct pages (UVM), a pinned prefix
(PT), region residency (Ascetic), or the Hybrid engine's cost-model scores —
and hands it to :func:`emit_access_plan`.  A lean run builds no plan at all
(Hybrid excepted: its plan moves its bytes).  Logging must be
observability-only: lean-mode digests and metrics cannot move.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.ascetic import AsceticConfig, AsceticEngine
from repro.core.static_region import StaticRegion
from repro.engines.base import AccessPath, RunPlan, emit_access_plan
from repro.engines.hybrid import HybridEngine
from repro.engines.partition_based import PartitionEngine
from repro.engines.sharded import ShardedEngine
from repro.engines.subway import SubwayEngine
from repro.engines.uvm_engine import UVMEngine
from repro.graph.partition import partitions_of_vertices
from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.events import EventLog

from conftest import TEST_SCALE, make_spec_for

#: engine class → the granule name its access-plan markers carry.
ENGINE_GRANULES = {
    PartitionEngine: "partition",
    UVMEngine: "page",
    SubwayEngine: "round",
    AsceticEngine: "chunk",
    HybridEngine: "chunk",
}
PATH_NAMES = {p.name.lower() for p in AccessPath}


def _bfs(graph):
    return make_program("BFS", source=best_source(graph))


def _logged_runs(result, iteration, granule):
    """``(path name, granule ids)`` per run marker of one superstep."""
    out = []
    for m in result.event_log.events:
        if (m.kind == "access-path" and m.iteration == iteration
                and m.label in PATH_NAMES):
            extra = dict(m.extra)
            lo, hi = int(extra[f"{granule}_lo"]), int(extra[f"{granule}_hi"])
            out.append((m.label, np.arange(lo, hi + 1)))
    return out


class TestEmitAccessPlan:
    def _gpu(self, record):
        return SimulatedGPU(GPUSpec(memory_bytes=1 << 20),
                            record_events=record)

    def test_lean_mode_summary_only_no_counters(self):
        """Even if called, a lean log keeps no row and no counter moves."""
        gpu = self._gpu(record=False)
        before = gpu.metrics.bytes_h2d, gpu.metrics.bytes_direct
        emit_access_plan(gpu, "X", "chunk",
                         RunPlan.from_ids(np.arange(4), AccessPath.MIGRATE))
        # Markers are counter-less: metrics (and hence digests) cannot move.
        assert (gpu.metrics.bytes_h2d, gpu.metrics.bytes_direct) == before
        assert gpu.events.n_events == 0  # nothing retained in lean mode

    def test_recorded_mode_emits_contiguous_runs(self):
        gpu = self._gpu(record=True)
        ids = np.array([0, 1, 2, 5, 6])
        paths = np.array([1, 1, 2, 2, 2], dtype=np.int8)
        emit_access_plan(gpu, "X", "chunk", RunPlan.from_ids(ids, paths))
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

    def test_empty_plan_emits_no_row(self):
        gpu = self._gpu(record=True)
        emit_access_plan(gpu, "X", "page",
                         RunPlan.from_ids(np.empty(0), AccessPath.DIRECT))
        assert gpu.events.n_events == 0


class TestEnginePlans:
    """What each engine's own rule logs, checked against its state."""

    def test_ascetic_resident_runs_are_the_touched_resident_chunks(
            self, small_web):
        """Residency is read live: every superstep's ``resident`` runs are
        exactly the touched chunks resident when the hook ran, while §3.4
        swaps change that set between supersteps (an id-local BFS wave
        leaves the front-filled region behind)."""
        from chunk_axis_oracles import dense_touch_counts

        eng = AsceticEngine(spec=make_spec_for(small_web, edge_fraction=0.5),
                            config=AsceticConfig(adaptive=False),
                            data_scale=TEST_SCALE, record_events=True)
        expected, residencies = {}, set()

        def hook(engine, gpu, graph, state):
            region = engine._region
            touch = dense_touch_counts(graph.chunk_map(region.chunk_bytes),
                                       state.active)
            expected[state.iteration] = np.nonzero(
                (touch > 0) & region.resident)[0]
            residencies.add(region.resident.tobytes())

        eng.iteration_hook = hook
        res = eng.run(small_web, make_program("BFS", source=0))
        assert res.extra["swap_bytes"] > 0
        assert len(residencies) > 1
        for it, want in expected.items():
            got = [ids for name, ids in _logged_runs(res, it, "chunk")
                   if name == "resident"]
            got = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
            assert np.array_equal(np.sort(got), want), f"iteration {it}"
            other = {name for name, _ in _logged_runs(res, it, "chunk")}
            assert other <= {"resident", "gather"}

    @pytest.mark.parametrize("engine_cls, path", [(SubwayEngine, "gather"),
                                                  (UVMEngine, "direct")],
                             ids=["Subway", "UVM"])
    def test_single_path_engines_log_one_path(self, engine_cls, path,
                                              small_social):
        eng = engine_cls(spec=make_spec_for(small_social),
                         data_scale=TEST_SCALE, record_events=True)
        res = eng.run(small_social, _bfs(small_social))
        granule = ENGINE_GRANULES[engine_cls]
        for it in range(res.iterations):
            runs = _logged_runs(res, it, granule)
            assert {name for name, _ in runs} <= {path}
            if engine_cls is SubwayEngine:
                # One run over every round of the superstep.
                assert len(runs) == 1 and runs[0][1][0] == 0

    def test_pt_pinned_partitions_resident_rest_migrate(self, small_social):
        eng = PartitionEngine(spec=make_spec_for(small_social),
                              data_scale=TEST_SCALE, record_events=True,
                              pinned_partitions=2)
        expected = {}

        def hook(engine, gpu, graph, state):
            touched = partitions_of_vertices(graph, engine._parts, state.active)
            expected[state.iteration] = [
                (int(pid), "resident" if pid < 2 else "migrate")
                for pid in np.nonzero(touched)[0]]

        eng.iteration_hook = hook
        res = eng.run(small_social, _bfs(small_social))
        assert len(eng._parts) > 2
        seen = set()
        for it, want in expected.items():
            got = [(int(pid), name)
                   for name, ids in _logged_runs(res, it, "partition")
                   for pid in ids]
            assert got == want, f"iteration {it}"
            seen.update(name for _, name in got)
        assert seen == {"resident", "migrate"}


class TestLeanRunBuildsNoPlan:
    """A lean log drops counter-less markers, so a lean superstep must not
    build or emit a plan.  Hybrid is exempt: its plan drives its movement."""

    @pytest.mark.parametrize("make_engine", [
        lambda spec: PartitionEngine(spec=spec, data_scale=TEST_SCALE,
                                     pinned_partitions=1),
        lambda spec: UVMEngine(spec=spec, data_scale=TEST_SCALE),
        lambda spec: SubwayEngine(spec=spec, data_scale=TEST_SCALE),
        lambda spec: AsceticEngine(spec=spec, data_scale=TEST_SCALE),
        lambda spec: ShardedEngine(spec=spec, data_scale=TEST_SCALE,
                                   devices=2, inner="Ascetic"),
    ], ids=["PT", "UVM", "Subway", "Ascetic", "Sharded"])
    def test_no_plan_built_or_emitted(self, make_engine, small_social,
                                      monkeypatch):
        calls = []
        real_init, real_marker = RunPlan.__init__, EventLog.marker

        def counted_init(self, *args, **kwargs):
            calls.append("RunPlan")
            real_init(self, *args, **kwargs)

        def counted_marker(self, kind, *args, **kwargs):
            if kind == "access-path":
                calls.append("marker")
            return real_marker(self, kind, *args, **kwargs)

        def refuse(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on a lean run")
            return spy

        monkeypatch.setattr(RunPlan, "__init__", counted_init)
        monkeypatch.setattr(EventLog, "marker", counted_marker)
        for name in ("split_by_residency", "resident_count_in_runs"):
            monkeypatch.setattr(StaticRegion, name, refuse(name))
        res = make_engine(make_spec_for(small_social)).run(
            small_social, _bfs(small_social))
        assert res.iterations > 1
        assert calls == []


@pytest.mark.parametrize("engine_cls", list(ENGINE_GRANULES),
                         ids=[c.name for c in ENGINE_GRANULES])
class TestEveryEngineEmitsItsPlan:
    def _run(self, engine_cls, graph, **kwargs):
        eng = engine_cls(spec=make_spec_for(graph), data_scale=TEST_SCALE,
                         **kwargs)
        res = eng.run(graph, _bfs(graph))
        return eng, res

    def test_plan_visible_in_recorded_trace(self, engine_cls, small_social):
        granule = ENGINE_GRANULES[engine_cls]
        _, res = self._run(engine_cls, small_social, record_events=True)
        markers = [e for e in res.event_log.events if e.kind == "access-path"]
        summaries = [m for m in markers
                     if m.label == f"{engine_cls.name}:{granule}"]
        assert summaries, "no per-iteration access-plan summary emitted"
        per_run = [m for m in markers if m.label in PATH_NAMES]
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
                per_iter[now["it"]]["budget"] = getattr(getattr(
                    engine, "transfer_policy", None), "migrate_budget", None)
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
        last["budget"] = getattr(getattr(eng, "transfer_policy", None),
                                 "migrate_budget", None)
        last["resident_after"] = eng._region.resident_chunks
        return eng, res, per_iter, swaps

    def test_plan_accounts_for_exactly_the_touched_chunks(
            self, engine_cls, algo, small_social):
        eng, res, per_iter, swaps = self._recorded_run(
            engine_cls, small_social, algo)
        assert len(per_iter) == res.iterations
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
            assert set(summary) <= PATH_NAMES
            assert sum(summary.values()) == touched.size
            # Per-run markers tile the touched ids: no gap, no overlap.
            covered = np.zeros(n_chunks, dtype=np.int64)
            per_path = dict.fromkeys(summary, 0.0)
            for m in markers:
                if m.label not in PATH_NAMES:
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
