"""Batched event emission must be indistinguishable from per-op emission.

The manager's lean-mode fast paths fold whole op columns through
:meth:`EventLog.emit_batch` and scalar ops through :meth:`EventLog.emit_op`
instead of replaying one row per op.  Nothing downstream may be able to
tell: the folded :class:`Metrics` (float accumulation order included), the
per-lane stats, and — in recorded mode — the retained rows must equal
per-op emission bit for bit.  These tests pin that at the
unit level and through full engine runs (Ascetic, Hybrid, and a 4-device
Sharded fabric), where lean and recorded executions must produce identical
result payloads.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algorithms import make_program
from repro.core.ascetic import AsceticEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.sharded import ShardedEngine
from repro.gpusim.events import COUNTER_FIELDS, EventLog
from repro.graph.properties import best_source
from repro.harness.persistence import result_to_payload

from conftest import TEST_SCALE, make_spec_for
from event_log_oracles import SimEvent


def _ops_strategy():
    """Random op columns: sorted starts, non-negative durations, counters."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=1 << 30),
            st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=40,
    )


def _columns(ops):
    starts = np.array([s for s, _, _, _ in ops], dtype=np.float64)
    ends = starts + np.array([d for _, d, _, _ in ops], dtype=np.float64)
    byte_col = np.array([b for _, _, b, _ in ops], dtype=np.int64)
    retry_col = np.array([r for _, _, _, r in ops], dtype=np.float64)
    return starts, ends, byte_col, retry_col


def _lane_stats_dict(log):
    return {
        key: (s.busy_seconds, s.n_ops, s.first_start, s.last_end)
        for key, s in log.lane_stats.items()
    }


class TestEmitOp:
    @given(ops=_ops_strategy())
    def test_lean_fold_matches_per_event_emission(self, ops):
        """emit_op folds exactly like replaying the same row."""
        by_op, by_event = EventLog(record=False), EventLog(record=False)
        by_op.current_phase = by_event.current_phase = "Tfilling"
        starts, ends, byte_col, retry_col = _columns(ops)
        for i in range(starts.size):
            counters = {"bytes_h2d": int(byte_col[i]),
                        "retry_seconds": float(retry_col[i])}
            by_op.emit_op("copy", "h2d", "x", float(starts[i]),
                          float(ends[i]), counters=counters, device=2)
            by_event.emit_row(SimEvent(
                lane="copy", kind="h2d", label="x",
                start=float(starts[i]), end=float(ends[i]),
                phase="Tfilling", device=2, **counters).to_dict())
        assert by_op.metrics.as_dict() == by_event.metrics.as_dict()
        assert _lane_stats_dict(by_op) == _lane_stats_dict(by_event)

    def test_unknown_counter_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(TypeError):
            log.emit_op("gpu", "kernel", "k", 0.0, 1.0,
                        counters={"not_a_counter": 1})


class TestEmitBatch:
    @given(ops=_ops_strategy())
    def test_lean_batch_equals_op_sequence_bitwise(self, ops):
        """One emit_batch == the same rows through emit_op, bit for bit.

        Float accumulators (phase seconds, lane busy time, retry seconds)
        must be added in row order — a pairwise np.sum would drift in the
        last ulp, which `==` here would catch.
        """
        batched, looped = EventLog(record=False), EventLog(record=False)
        batched.current_phase = looped.current_phase = "Ttransfer"
        starts, ends, byte_col, retry_col = _columns(ops)
        batched.emit_batch("copy", "h2d", "od-transfer", starts, ends,
                           counters={"bytes_h2d": byte_col,
                                     "retry_seconds": retry_col})
        for i in range(starts.size):
            looped.emit_op("copy", "h2d", "od-transfer",
                           float(starts[i]), float(ends[i]),
                           counters={"bytes_h2d": int(byte_col[i]),
                                     "retry_seconds": float(retry_col[i])})
        assert batched.metrics.as_dict() == looped.metrics.as_dict()
        assert _lane_stats_dict(batched) == _lane_stats_dict(looped)

    @given(ops=_ops_strategy())
    def test_recorded_batch_materializes_identical_events(self, ops):
        batched, looped = EventLog(record=True), EventLog(record=True)
        batched.current_phase = looped.current_phase = "Tondemand"
        batched.current_iteration = looped.current_iteration = 3
        starts, ends, byte_col, _ = _columns(ops)
        batched.emit_batch("gpu", "kernel", "od-compute", starts, ends,
                           counters={"edges_processed": byte_col}, device=1)
        for i in range(starts.size):
            looped.emit_op("gpu", "kernel", "od-compute",
                           float(starts[i]), float(ends[i]),
                           counters={"edges_processed": int(byte_col[i])},
                           device=1)
        assert json.dumps(batched.events.to_dicts()) == json.dumps(
            looped.events.to_dicts())
        assert batched.metrics.as_dict() == looped.metrics.as_dict()

    def test_empty_batch_is_a_no_op(self):
        log = EventLog(record=False)
        empty = np.empty(0, dtype=np.float64)
        log.emit_batch("cpu", "gather", "g", empty, empty)
        assert log.metrics.as_dict() == EventLog(record=False).metrics.as_dict()
        assert log.lane_stats == {}

    def test_length_mismatch_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(ValueError):
            log.emit_batch("cpu", "gather", "g",
                           np.zeros(3), np.zeros(2))

    def test_counter_column_shape_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(ValueError):
            log.emit_batch("cpu", "gather", "g", np.zeros(3), np.ones(3),
                           counters={"bytes_h2d": np.zeros(2, dtype=np.int64)})

    def test_unknown_counter_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(TypeError):
            log.emit_batch("cpu", "gather", "g", np.zeros(1), np.ones(1),
                           counters={"bogus": np.ones(1, dtype=np.int64)})


def _payload_digest(result) -> str:
    payload = result_to_payload(result)
    # The retained event list exists only in recorded mode by design;
    # everything else in the payload must agree across modes.
    payload.pop("events", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class TestLeanEqualsRecorded:
    """Full engine runs: lean mode (batched emission, interval fast paths)
    must produce the same result payload as recorded mode (op-by-op
    emission) — counters, phase seconds, values, and timing all included."""

    def _assert_modes_agree(self, run):
        lean, recorded = run(record_events=False), run(record_events=True)
        assert lean.metrics.as_dict() == recorded.metrics.as_dict()
        assert np.array_equal(lean.values, recorded.values)
        assert lean.elapsed_seconds == recorded.elapsed_seconds
        assert lean.iterations == recorded.iterations
        assert _payload_digest(lean) == _payload_digest(recorded)

    @pytest.mark.parametrize("algo", ["BFS", "PR"])
    def test_ascetic(self, small_social, algo):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        if algo == "BFS":
            program = lambda: make_program("BFS",
                                           source=best_source(small_social))
        else:
            program = lambda: make_program("PR", tol=1e-2)
        cfg = dict(fill="front", replacement=True)

        def run(record_events):
            eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg,
                                record_events=record_events)
            return eng.run(small_social, program())

        self._assert_modes_agree(run)

    def test_ascetic_many_rounds(self, small_web):
        """A squeezed on-demand region drives the batched round scheduler."""
        spec = make_spec_for(small_web, edge_fraction=0.15)
        cfg = dict(forced_ratio=0.9, adaptive=False)

        def run(record_events):
            eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg,
                                record_events=record_events)
            return eng.run(small_web, make_program("CC"))

        self._assert_modes_agree(run)

    def test_hybrid(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)

        def run(record_events):
            eng = HybridEngine(spec=spec, data_scale=TEST_SCALE,
                               record_events=record_events)
            return eng.run(small_social,
                           make_program("BFS",
                                        source=best_source(small_social)))

        self._assert_modes_agree(run)

    def test_sharded_four_devices(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)

        def run(record_events):
            eng = ShardedEngine(spec=spec, data_scale=TEST_SCALE, devices=4,
                                record_events=record_events)
            return eng.run(small_social,
                           make_program("BFS",
                                        source=best_source(small_social)))

        self._assert_modes_agree(run)
