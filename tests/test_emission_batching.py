"""Batched event emission must be indistinguishable from per-op emission.

The manager's lean-mode fast paths fold whole op columns through
:meth:`EventLog.emit_batch` and scalar ops through :meth:`EventLog.emit_op`
instead of replaying one row per op.  Nothing downstream may be able to
tell: the folded :class:`Metrics` (float accumulation order included), the
per-lane stats, and — in recorded mode — the retained rows must equal
per-op emission bit for bit.  ``tests/test_event_columns.py`` states the
rows and folds of each door; these tests pin long recorded batches, the
batch door's errors, and full engine runs (Ascetic, Hybrid, and a 4-device
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
from repro.gpusim.events import EventLog
from repro.graph.properties import best_source
from repro.harness.persistence import result_to_payload

from conftest import TEST_SCALE, make_spec_for


#: Random ops: a start, a non-negative duration and a counter value each.
OPS = st.lists(st.tuples(st.floats(0.0, 10.0, allow_nan=False),
                         st.floats(0.0, 1.0, allow_nan=False),
                         st.integers(0, 1 << 30)), min_size=1, max_size=40)


class TestEmitOp:
    def test_unknown_counter_rejected(self):
        log = EventLog(record=False)
        with pytest.raises(TypeError):
            log.emit_op("gpu", "kernel", "k", 0.0, 1.0,
                        counters={"not_a_counter": 1})


class TestEmitBatch:
    @given(ops=OPS)
    def test_recorded_batch_materializes_identical_events(self, ops):
        starts = np.array([start for start, _, _ in ops])
        ends = starts + np.array([dur for _, dur, _ in ops])
        edges = np.array([n for _, _, n in ops], dtype=np.int64)
        batched, looped = EventLog(record=True), EventLog(record=True)
        for log in (batched, looped):
            log.current_phase, log.current_iteration = "Tondemand", 3
        batched.emit_batch("gpu", "kernel", "od-compute", starts, ends,
                           counters={"edges_processed": edges}, device=1)
        for start, end, n in zip(starts.tolist(), ends.tolist(),
                                 edges.tolist()):
            looped.emit_op("gpu", "kernel", "od-compute", start, end,
                           counters={"edges_processed": n}, device=1)
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
