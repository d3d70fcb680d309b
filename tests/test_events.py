"""Tests for the event-sourced accounting core (`repro.gpusim.events`)."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.ascetic import AsceticEngine
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.engines.uvm_engine import UVMEngine
from repro.graph.properties import best_source
from repro.gpusim.clock import VirtualClock
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.events import (
    COUNTER_FIELDS,
    EventLog,
    EventLogError,
    LaneStats,
    fold_lane_stats,
    fold_metrics,
    fold_spans,
    idle_breakdown,
    ordered_sum,
    validate_log,
)
from repro.gpusim.metrics import Metrics
from repro.gpusim.stream import Lane

from conftest import TEST_SCALE, make_spec_for
from event_log_oracles import SimEvent, columns, rows
from event_log_oracles import fold_metrics as specified_fold

ALL_ENGINES = [PartitionEngine, UVMEngine, SubwayEngine, AsceticEngine]


def ev(lane="gpu", kind="op", label="", start=0.0, end=1.0, **kw):
    return SimEvent(lane=lane, kind=kind, label=label, start=start, end=end, **kw)


class TestSimEvent:
    def test_duration(self):
        assert ev(start=1.0, end=3.5).duration == 2.5

    def test_instant(self):
        assert ev(lane="", start=2.0, end=2.0).is_instant
        assert not ev().is_instant

    def test_dict_round_trip(self):
        e = ev(lane="copy", kind="h2d", label="part3", start=0.5, end=1.25,
               phase="Ttransfer", iteration=4, bytes_h2d=1024,
               h2d_transfers=1, extra=(("note", 2.0),))
        log = EventLog(record=True)
        log.emit_row(columns([e]).to_dicts()[0])
        assert rows(log.events) == [e]

    def test_dict_omits_defaults(self):
        (d,) = columns([ev()]).to_dicts()
        assert set(d) == {"lane", "kind", "label", "start", "end"}

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="bogus"):
            EventLog().emit_row({"lane": "gpu", "kind": "op", "label": "",
                                 "start": 0.0, "end": 1.0, "bogus": 7})


class TestFolds:
    def events(self):
        return columns([
            ev(lane="copy", kind="h2d", label="a", start=0.0, end=1.0,
               phase="Ttransfer", bytes_h2d=500, h2d_transfers=1),
            ev(lane="gpu", kind="kernel", label="b", start=1.0, end=4.0,
               phase="Tcompute", kernel_launches=1, edges_processed=99),
            ev(lane="", kind="uvm-fault", label="t", start=4.0, end=4.0,
               page_faults=3, pages_migrated=3, pages_evicted=1),
        ])

    def test_fold_metrics(self):
        m = fold_metrics(self.events())
        assert m.bytes_h2d == 500 and m.h2d_transfers == 1
        assert m.kernel_launches == 1 and m.edges_processed == 99
        assert m.page_faults == 3 and m.pages_migrated == 3
        assert m.pages_evicted == 1
        assert dict(m.phase_seconds) == {"Ttransfer": 1.0, "Tcompute": 3.0}

    def test_fold_spans_skips_instants(self):
        spans = fold_spans(self.events())
        assert [(s.lane, s.start, s.end) for s in spans] == [
            ("copy", 0.0, 1.0), ("gpu", 1.0, 4.0)
        ]

    def test_fold_phase_seconds(self):
        assert fold_metrics(self.events()).phase_seconds == {
            "Ttransfer": 1.0, "Tcompute": 3.0
        }

    def test_fold_lane_stats(self):
        stats = fold_lane_stats(self.events())
        assert set(stats) == {"copy", "gpu"}
        assert stats["gpu"] == LaneStats(busy_seconds=3.0, n_ops=1)

    def test_incremental_fold_matches_replay(self):
        log = EventLog(record=True)
        for row in self.events().to_dicts():
            log.emit_row(row)
        replay = fold_metrics(log.events)
        for name in COUNTER_FIELDS:
            assert getattr(replay, name) == getattr(log.metrics, name)
        assert dict(replay.phase_seconds) == dict(log.metrics.phase_seconds)

    def test_lean_mode_retains_nothing_but_folds_everything(self):
        log = EventLog(record=False)
        for row in self.events().to_dicts():
            log.emit_row(row)
        assert len(log.events) == 0
        assert log.metrics.bytes_h2d == 500
        assert log.busy_seconds("gpu") == 3.0
        assert log.idle_seconds("gpu", 10.0) == 7.0


class TestIdleBreakdown:
    def test_late_start_is_lead_not_stall(self):
        """A lane whose first op starts late led idle, it did not stall —
        the distinction the old ``horizon - busy_seconds`` could not make."""
        events = columns([
            ev(lane="gpu", start=6.0, end=8.0),
            ev(lane="gpu", start=9.0, end=10.0),
        ])
        b = idle_breakdown(events, "gpu", horizon=12.0)
        assert b.lead == 6.0
        assert b.stall == 1.0
        assert b.tail == 2.0
        assert b.busy == 3.0
        assert b.idle == 9.0
        assert b.idle_fraction == pytest.approx(0.75)
        # Totals agree with the undifferentiated subtraction.
        assert b.idle + b.busy == pytest.approx(b.horizon)

    def test_no_ops_all_lead(self):
        b = idle_breakdown(columns([]), "gpu", horizon=5.0)
        assert (b.lead, b.stall, b.tail, b.busy) == (5.0, 0.0, 0.0, 0.0)

    def test_from_recorded_log(self):
        gpu = SimulatedGPU(GPUSpec(memory_bytes=10**6), record_events=True)
        gpu.sync(gpu.cpu_gather(8 * 10**6))  # GPU idles through the gather
        gpu.sync(gpu.edge_kernel(1000))
        b = idle_breakdown(gpu.events, "gpu", gpu.clock.now)
        assert b.lead > 0 and b.stall == 0.0
        assert b.idle == pytest.approx(
            gpu.events.idle_seconds("gpu", gpu.clock.now))
        assert gpu.gpu_idle_fraction() == pytest.approx(b.idle_fraction)

    def test_lean_log_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(EventLogError):
            idle_breakdown(log, "gpu", 1.0)


def test_ordered_sum_adds_left_to_right_from_int_zero():
    # A compensated sum (the builtin's on Python >= 3.12) gives 1.0 here.
    samples = [1e16, 1.0, -1e16]
    assert ordered_sum(samples) == 0.0
    assert ordered_sum(iter(samples)) == (1e16 + 1.0) - 1e16
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int


class TestPhaseContext:
    def test_events_stamped_with_context(self):
        gpu = SimulatedGPU(GPUSpec(memory_bytes=10**6), record_events=True)
        with gpu.phase("Tsr", iteration=2):
            gpu.edge_kernel(100)
        gpu.h2d(100)
        kernel, copy = rows(gpu.events.events)
        assert kernel.phase == "Tsr" and kernel.iteration == 2
        assert copy.phase is None and copy.iteration is None

    def test_phase_seconds_folded_from_events(self):
        gpu = SimulatedGPU(GPUSpec(memory_bytes=10**6), record_events=True)
        with gpu.phase("Ttransfer"):
            gpu.h2d(4096)
        (e,) = rows(gpu.events.events)
        assert gpu.metrics.phase_seconds["Ttransfer"] == e.duration


class TestValidator:
    def make_log(self, *events):
        log = EventLog(record=True)
        for row in columns(events).to_dicts():
            log.emit_row(row)
        return log

    def test_valid_log_returns_fold(self):
        log = self.make_log(ev(start=0.0, end=1.0), ev(start=1.0, end=2.0))
        folded = validate_log(log)
        assert isinstance(folded, Metrics)

    def test_rejects_lean_log(self):
        with pytest.raises(EventLogError, match="lean"):
            validate_log(EventLog(record=False))

    def test_detects_lane_self_overlap(self):
        log = self.make_log(ev(start=0.0, end=2.0), ev(start=1.0, end=3.0))
        with pytest.raises(EventLogError, match="self-overlap"):
            validate_log(log)

    def test_detects_bad_interval(self):
        log = self.make_log(ev(start=3.0, end=1.0))
        with pytest.raises(EventLogError, match="bad interval"):
            validate_log(log)

    def test_detects_horizon_violation(self):
        log = self.make_log(ev(start=0.0, end=5.0))
        with pytest.raises(EventLogError, match="horizon"):
            validate_log(log, horizon=4.0)

    def test_detects_wide_instant(self):
        log = EventLog(record=True)
        log.events.add("", "op", "", 0.0, 1.0, None, None, None, None, ())
        with pytest.raises(EventLogError, match="width"):
            validate_log(log)

    def test_detects_counter_divergence(self):
        log = self.make_log(ev(bytes_h2d=100))
        log.metrics.bytes_h2d += 1  # simulate an out-of-band poke
        with pytest.raises(EventLogError, match="bytes_h2d"):
            validate_log(log)

    def test_detects_external_metrics_divergence(self):
        log = self.make_log(ev(bytes_h2d=100))
        other = Metrics(bytes_h2d=99)
        with pytest.raises(EventLogError, match="reported metrics"):
            validate_log(log, metrics=other)

    def test_different_lanes_may_overlap(self):
        log = self.make_log(
            ev(lane="gpu", start=0.0, end=3.0),
            ev(lane="copy", start=1.0, end=2.0),
        )
        validate_log(log)


class TestLeanDefault:
    def test_engine_default_retains_no_events(self, small_social):
        spec = make_spec_for(small_social)
        src = best_source(small_social)
        engine = SubwayEngine(spec=spec, data_scale=TEST_SCALE)
        res = engine.run(small_social, make_program("BFS", source=src))
        assert res.event_log is None

    def test_gpu_default_is_lean(self):
        gpu = SimulatedGPU(GPUSpec(memory_bytes=10**6))
        gpu.h2d(1000)
        assert gpu.events.record is False
        assert len(gpu.events.events) == 0
        assert gpu.metrics.h2d_transfers == 1  # ...but folds still run

    def test_record_events_opt_in_attaches_log(self, small_social):
        spec = make_spec_for(small_social)
        src = best_source(small_social)
        engine = SubwayEngine(spec=spec, data_scale=TEST_SCALE,
                              record_events=True)
        res = engine.run(small_social, make_program("BFS", source=src))
        assert res.event_log is not None
        assert res.event_log.events
        assert res.metrics is res.event_log.metrics

    def test_recording_does_not_change_results(self, small_social):
        spec = make_spec_for(small_social)
        src = best_source(small_social)

        def run(**kw):
            return SubwayEngine(spec=spec, data_scale=TEST_SCALE, **kw).run(
                small_social, make_program("BFS", source=src))

        lean, recorded = run(), run(record_events=True)
        assert lean.elapsed_seconds == recorded.elapsed_seconds
        assert lean.metrics.as_dict() == recorded.metrics.as_dict()
        assert np.array_equal(lean.values, recorded.values)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda c: c.name)
@pytest.mark.parametrize("algo", ["BFS", "PR"])
class TestCrossEngineConsistency:
    """Satellite: folded-event metrics must equal legacy counters bit for
    bit, and per-phase span sums must equal ``phase_seconds``, on the full
    engine × algorithm grid."""

    def run(self, engine_cls, algo, graph):
        spec = make_spec_for(graph)
        if algo == "BFS":
            program = make_program("BFS", source=best_source(graph))
        else:
            program = make_program("PR", tol=1e-2)
        engine = engine_cls(spec=spec, data_scale=TEST_SCALE,
                            record_events=True)
        return engine.run(graph, program)

    def test_log_validates_and_folds_bit_identical(self, engine_cls, algo,
                                                   small_social):
        res = self.run(engine_cls, algo, small_social)
        folded = validate_log(res.event_log, metrics=res.metrics,
                              horizon=res.elapsed_seconds)
        for name in COUNTER_FIELDS:
            assert getattr(folded, name) == getattr(res.metrics, name), name
        assert dict(folded.phase_seconds) == dict(res.metrics.phase_seconds)

    def test_phase_span_sums_equal_phase_seconds(self, engine_cls, algo,
                                                 small_social):
        res = self.run(engine_cls, algo, small_social)
        # Same rows, same order, same additions → bit-identical sums.
        sums = specified_fold(rows(res.event_log.events)).phase_seconds
        assert dict(sums) == dict(res.metrics.phase_seconds)

    def test_lane_busy_equals_event_sums(self, engine_cls, algo, small_social):
        res = self.run(engine_cls, algo, small_social)
        stats = fold_lane_stats(res.event_log.events)
        for lane, st in stats.items():
            assert st.busy_seconds == res.event_log.busy_seconds(lane)


class TestStandaloneLane:
    def test_lane_gets_private_log(self):
        lane = Lane("gpu", VirtualClock())
        assert isinstance(lane.log, EventLog)
        lane.submit(2.0)
        assert lane.log.busy_seconds(lane.key) == 2.0

    def test_shared_log_across_lanes(self):
        clock = VirtualClock()
        log = EventLog(record=True)
        a = Lane("gpu", clock, log=log)
        b = Lane("copy", clock, log=log)
        a.submit(1.0)
        b.submit(2.0)
        assert {e.lane for e in rows(log.events)} == {"gpu", "copy"}
