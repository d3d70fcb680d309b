"""The columnar event log against its specification.

``EventLog`` folds every emit into ``Metrics`` / ``LaneStats`` and, when
recording, appends the row to typed columns (``EventColumns``); every reader
is a fold over those columns.  Hypothesis drives the log through every door
with random emission sequences: each door must append the decoded rows
:func:`door_rows` states, and every reader must return what
``tests/event_log_oracles.py`` specifies over those rows — counters,
order-sensitive float sums, idle attribution, the Chrome-trace records, and
which row ``validate_log`` rejects.

Times are generated as floats only: the columns store them as C doubles, so
an ``int`` time would come back as the equal ``float``.
"""

import json
import pickle
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.traces import chrome_trace_events
from repro.gpusim import events as ev
from repro.gpusim.events import (COUNTER_FIELDS, REQUEST_KINDS, EventColumns,
                                 EventLog, EventLogError)
from repro.gpusim.fabric import fold_exchange_bytes
from repro.serve.slo import _DEGRADED_KINDS, canonical_json, fold_slo

import event_log_oracles as spec
from event_log_oracles import SimEvent, columns, rows

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LANES = ("gpu", "copy", "cpu")
KINDS = ("kernel", "h2d", "backoff", "h2d-fault", "device-down", "uvm-fault",
         "access-path")
LABELS = ("", "a", "od-transfer", "chunk!fail")
PHASES = (None, "Tsr", "Ttransfer", "Tondemand")
INT_COUNTERS = ("bytes_h2d", "h2d_transfers", "kernel_launches",
                "page_faults", "transfer_faults")
EXTRA_KEYS = ("n", "chunk_lo", "bytes", "iteration", "requested")

times = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
devices = st.sampled_from((None, None, 0, 1, 2))
contexts = st.tuples(st.sampled_from(PHASES),
                     st.sampled_from((None, 0, 3, 17)))
counters = st.dictionaries(
    st.sampled_from(INT_COUNTERS), st.integers(0, 1 << 40), max_size=3,
).flatmap(lambda ints: st.one_of(
    st.just(ints),
    durations.map(lambda r: {**ints, "retry_seconds": r}),
    # Out of COUNTER_FIELDS order: the row's JSON must not care.
    durations.map(lambda r: {"retry_seconds": r, **ints}),
))
values = st.one_of(st.integers(-5, 1 << 40),
                   st.floats(-1e6, 1e6, allow_nan=False))
extras = st.lists(st.tuples(st.sampled_from(EXTRA_KEYS), values),
                  max_size=3).map(tuple)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 4))
    starts = draw(st.lists(times, min_size=n, max_size=n))
    ends = [s + draw(durations) for s in starts]
    cols = {name: draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
            for name in draw(st.sets(st.sampled_from(INT_COUNTERS),
                                     max_size=2))}
    if draw(st.booleans()):
        cols["retry_seconds"] = draw(st.lists(durations, min_size=n,
                                              max_size=n))
    return starts, ends, cols


@st.composite
def blocks(draw):
    n = draw(st.integers(0, 5))
    keys = tuple(draw(st.lists(st.sampled_from(EXTRA_KEYS), max_size=3,
                               unique=True)))
    cols = [draw(st.lists(values, min_size=n, max_size=n)) for _ in keys]
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return labels, keys, cols


def _row_dict(lane, kind, label, start, dur, context, device, counts, extra):
    # Lane-less rows with width and rows running backwards are legal here:
    # emit_row() replays what it is given, validate_log is what rejects them.
    row = {"lane": lane, "kind": kind, "label": label, "start": start,
           "end": start + dur, **counts}
    row.update((key, value) for key, value in zip(
        ("phase", "iteration", "device"), (*context, device))
        if value is not None)
    if extra:
        row["extra"] = [list(pair) for pair in extra]
    return row


steps = st.one_of(
    st.tuples(st.just("context"), contexts),
    st.tuples(st.just("emit_op"), st.sampled_from(LANES),
              st.sampled_from(KINDS), st.sampled_from(LABELS), times,
              durations, counters, extras, devices),
    st.tuples(st.just("marker"), st.sampled_from(KINDS),
              st.sampled_from(LABELS), times, counters, extras, devices),
    st.tuples(st.just("marker_block"), st.sampled_from(KINDS), blocks(),
              times, devices),
    st.tuples(st.just("emit_batch"), st.sampled_from(LANES),
              st.sampled_from(KINDS), st.sampled_from(LABELS), batches(),
              devices),
    st.tuples(st.just("emit_row"), st.builds(
        _row_dict, st.sampled_from(("",) + LANES), st.sampled_from(KINDS),
        st.sampled_from(LABELS), times,
        st.floats(-1.0, 2.0, allow_nan=False), contexts, devices,
        counters, extras)),
)


def drive(log, sequence):
    for step in sequence:
        op, args = step[0], step[1:]
        if op == "context":
            log.current_phase, log.current_iteration = args[0]
        elif op == "emit_op":
            lane, kind, label, start, dur, counts, extra, device = args
            log.emit_op(lane, kind, label, start, start + dur,
                        counters=counts, extra=extra, device=device)
        elif op == "marker":
            kind, label, t, counts, extra, device = args
            log.marker(kind, label, t, counters=counts, extra=extra,
                       device=device)
        elif op == "marker_block":
            kind, (labels, keys, cols), t, device = args
            log.marker_block(kind, labels, t, keys, cols, device=device)
        elif op == "emit_batch":
            lane, kind, label, (starts, ends, cols), device = args
            log.emit_batch(lane, kind, label, np.array(starts),
                           np.array(ends),
                           counters={k: np.array(v) for k, v in cols.items()},
                           device=device)
        else:
            log.emit_row(args[0])
    return log


def _row(lane, device, kind, label, phase, iteration, start, end,
         counts=None, extra=()):
    """One decoded row: the non-zero counters in ``COUNTER_FIELDS`` order,
    each ``extra`` pair split into a key tuple and a value tuple."""
    kept = [(name, counts[name]) for name in COUNTER_FIELDS
            if (counts or {}).get(name)]
    return ((lane, device), kind, label, phase, iteration, start, end,
            *(tuple(zip(*kept)) or ((), ())),
            *(tuple(zip(*extra)) or ((), ())))


def door_rows(step, phase, iteration):
    """The rows one step's door appends, under the context in force."""
    op, *args = step
    if op == "emit_op":
        lane, kind, label, start, dur, counts, extra, device = args
        return [_row(lane, device, kind, label, phase, iteration, start,
                     start + dur, counts, extra)]
    if op == "marker":
        kind, label, t, counts, extra, device = args
        return [_row("", device, kind, label, phase, iteration, t, t, counts,
                     extra)]
    if op == "marker_block":  # row i: marker(labels[i], extra: column i)
        kind, (labels, keys, cols), t, device = args
        return [_row("", device, kind, label, phase, iteration, t, t,
                     extra=tuple(zip(keys, values)))
                for label, values in zip(labels,
                                         zip(*cols) if cols else repeat(()))]
    if op == "emit_batch":  # row i: emit_op(starts[i], ends[i], counters i)
        lane, kind, label, (starts, ends, cols), device = args
        return [_row(lane, device, kind, label, phase, iteration, start, end,
                     {name: col[i] for name, col in cols.items()})
                for i, (start, end) in enumerate(zip(starts, ends))]
    (data,) = args  # emit_row: the row as given, its own context
    return [_row(data["lane"], data.get("device"), data["kind"],
                 data["label"], data.get("phase"), data.get("iteration"),
                 data["start"], data["end"], data,
                 tuple(map(tuple, data.get("extra", ()))))]


def expected_rows(sequence):
    phase = iteration = None
    out = []
    for step in sequence:
        if step[0] == "context":
            phase, iteration = step[1]
        else:
            out += door_rows(step, phase, iteration)
    return out


def folds(metrics, lane_stats):
    return (metrics.as_dict(), list(metrics.phase_seconds.items()),
            {key: (s.busy_seconds, s.n_ops) for key, s in lane_stats.items()})


def folds_of(log):
    return folds(log.metrics, log.lane_stats)


def spec_folds(events):
    return folds(spec.fold_metrics(events), spec.fold_lane_stats(events))


def folds_of_metrics(metrics):
    return metrics.as_dict(), list(metrics.phase_seconds.items())


def check_validate_log(log, events, horizon):
    """``validate_log`` rejects the row the spec names, or re-folds."""
    offence = spec.first_offence(events, horizon)
    if offence is None:
        assert folds_of_metrics(ev.validate_log(log, horizon=horizon)) == \
            folds_of_metrics(spec.fold_metrics(events))
        return
    i, reason = offence
    with pytest.raises(EventLogError) as exc:
        ev.validate_log(log, horizon=horizon)
    message = str(exc.value)
    assert message.startswith(f"event #{i} ({events[i].kind} "
                              f"{events[i].label!r}): ") and reason in message


@settings(max_examples=150, deadline=None)
@given(sequence=st.lists(steps, max_size=25),
       horizon=st.one_of(st.none(), times))
def test_every_door_and_reader_meets_its_spec(sequence, horizon):
    log = drive(EventLog(record=True), sequence)
    lean = drive(EventLog(record=False), sequence)

    # Each door's rows, with their types (an ``int`` stays an ``int``).
    assert json.dumps(list(log.events.rows())) == json.dumps(
        expected_rows(sequence))
    assert len(lean.events) == 0
    events = rows(log.events)
    # The one emit-time fold, in both modes.
    assert folds_of(log) == folds_of(lean) == spec_folds(events)

    # Every reader, on the log's columns and on its rows planted afresh.
    for cols in (log.events, columns(events)):
        assert folds_of_metrics(ev.fold_metrics(cols)) == folds_of_metrics(
            spec.fold_metrics(events))
        assert ev.fold_lane_stats(cols) == spec.fold_lane_stats(events)
        assert ev.fold_spans(cols) == spec.fold_spans(events)
        assert ev.fold_device_faults(cols) == spec.fold_device_faults(events)
    for lane in ("gpu", "copy@1", "nope"):
        for h in (0.0, 3.5, 20.0):
            got = ev.idle_breakdown(log, lane, h)
            want = spec.idle_breakdown(events, lane, h)
            assert got == want and repr(got) == repr(want)
    spec.check_chrome_trace(events, chrome_trace_events(log))
    check_validate_log(log, events, horizon)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(times, durations, durations),
                    min_size=20, max_size=120))
def test_float_sums_keep_row_order(ops):
    """Long single-phase, single-lane columns, op by op and as one lean
    batch: a pairwise (``np.sum``) reduction drifts from the row-by-row sum
    in the last ulp here."""
    starts = [start for start, _, _ in ops]
    ends = [start + dur for start, dur, _ in ops]
    retries = [retry for _, _, retry in ops]
    log, batched = EventLog(record=True), EventLog()
    log.current_phase = batched.current_phase = "Ttransfer"
    for start, end, retry in zip(starts, ends, retries):
        log.emit_op("copy", "h2d-fault", "x", start, end,
                    counters={"retry_seconds": retry})
    batched.emit_batch("copy", "h2d-fault", "x", np.array(starts),
                       np.array(ends),
                       counters={"retry_seconds": np.array(retries)})
    events = rows(log.events)
    assert folds_of(log) == folds_of(batched) == spec_folds(events)
    assert folds_of_metrics(ev.fold_metrics(log.events)) == folds_of_metrics(
        spec.fold_metrics(events))
    assert ev.fold_lane_stats(log.events) == spec.fold_lane_stats(events)
    assert ev.idle_breakdown(log, "copy", 6.0) == spec.idle_breakdown(
        events, "copy", 6.0)


@settings(max_examples=50, deadline=None)
@given(sequence=st.lists(steps, max_size=15))
def test_serialized_rows_replay_to_the_same_log(sequence):
    log = drive(EventLog(record=True), sequence)
    rows = json.loads(json.dumps(log.events.to_dicts()))
    replayed = EventLog(record=True)
    for row in rows:
        replayed.emit_row(row)
    assert json.dumps(replayed.events.to_dicts()) == json.dumps(rows)
    assert folds_of(replayed) == folds_of(log)
    assert json.dumps(pickle.loads(pickle.dumps(log)).events.to_dicts()) \
        == json.dumps(rows)


SERVE_KINDS = tuple(sorted(REQUEST_KINDS | _DEGRADED_KINDS)) + ("d2d",
                                                               "kernel")
SERVE_LABELS = ("acme/GS/BFS", "beta/FK/CC", "queue-full", "")
#: Small values only: a dispatch's ``devices`` is a loop bound.
SERVE_VALUES = (-1.0, 0.0, 1.0, 2.0, 2.5, 3)


@st.composite
def serve_rows(draw):
    kind = draw(st.sampled_from(SERVE_KINDS))
    lane = {"d2d": "link", "kernel": "gpu"}.get(kind, "")
    start = draw(times)
    extra = (("request", float(draw(st.integers(0, 5)))),
             ("deadline", draw(st.sampled_from((-1.0, 0.5, 4.0, 9.0))))) + \
        tuple(draw(st.lists(st.tuples(
            st.sampled_from(("device", "service", "requests",
                             "exchange_bytes", "devices", "bytes")),
            st.sampled_from(SERVE_VALUES)), max_size=3)))
    return SimEvent(lane, kind, draw(st.sampled_from(SERVE_LABELS)), start,
                    start + draw(durations) if lane else start,
                    device=draw(st.sampled_from((None, 0, 1, 3))),
                    extra=extra)


@st.composite
def served_logs(draw):
    """What random rows rarely assemble, shuffled: up to a dozen whole
    lifecycles, fabric-wide dispatches, overlapping outages, exchanges."""
    log = []
    for rid in range(draw(st.integers(0, 12))):
        t, x = draw(times), (("request", float(rid)),
                             ("deadline", draw(st.sampled_from((-1.0, 4.0)))))
        for kind in ("request-arrive", "request-start", "request-complete"):
            log.append(SimEvent("", kind, draw(st.sampled_from(SERVE_LABELS)),
                                t, t, extra=x))
            t += draw(durations)
    for _ in range(draw(st.integers(0, 8))):
        t = draw(times)
        kind = draw(st.sampled_from(("dispatch", "device-down", "device-up",
                                     "d2d")))
        extra = ()
        if kind == "d2d":
            extra = (("bytes", draw(durations) * 1e3),)
        elif kind == "dispatch":
            extra = (("device", draw(st.sampled_from((-1.0, 0.0, 1.0)))),
                     ("devices", float(draw(st.integers(1, 3)))),
                     ("service", draw(durations)),
                     ("exchange_bytes", draw(durations)))
        log.append(SimEvent("link" if kind == "d2d" else "", kind, "", t, t,
                            extra=extra,
                            device=draw(st.sampled_from((None, 0, 1)))))
    return draw(st.permutations(log))


@settings(max_examples=150, deadline=None)
@given(events=st.lists(serve_rows(), max_size=30) | served_logs(),
       horizon=st.one_of(st.none(), times))
def test_serving_folds_meet_their_spec(events, horizon):
    """``fold_slo`` and ``fold_exchange_bytes`` read columns through a kind
    mask; they must return what the spec states — torn lifecycles,
    out-of-order markers and faults past the horizon included."""
    cols = columns(events)
    assert canonical_json(fold_slo(cols, horizon)) == canonical_json(
        spec.fold_slo(events, horizon))
    mine = fold_exchange_bytes(cols)
    theirs = spec.fold_exchange_bytes(events)
    assert list(mine.items()) == list(theirs.items())


def _monotone_log():
    log = EventLog(record=True)
    log.emit_op("gpu", "kernel", "k0", 0.0, 1.0)
    log.emit_op("copy", "h2d", "c0", 0.5, 1.5)
    log.emit_op("gpu", "kernel", "k1", 1.0, 2.0)
    return log


class TestValidateRejectsCorruptedLogs:
    """The three corruptions the issue names, at a known row."""

    def test_self_overlap(self):
        log = _monotone_log()
        log.emit_op("gpu", "kernel", "k2", 1.5, 3.0)
        with pytest.raises(EventLogError, match=r"event #3 \(kernel 'k2'\): "
                           r"lane 'gpu' self-overlaps \(starts at 1.5 before "
                           r"previous end 2.0\)"):
            ev.validate_log(log)

    def test_lane_less_width(self):
        log = _monotone_log()
        log.events.add("", "pin", "p", 0.0, 1.0, None, None, None, None, ())
        with pytest.raises(EventLogError, match=r"event #3 .*has width"):
            ev.validate_log(log)

    def test_end_past_horizon(self):
        with pytest.raises(EventLogError, match=r"event #2 \(kernel 'k1'\): "
                           r"ends at 2.0 beyond horizon 1.75"):
            ev.validate_log(_monotone_log(), horizon=1.75)

    def test_the_first_offender_is_reported(self):
        log = _monotone_log()
        log.emit_op("gpu", "kernel", "late", 1.0, 9.0)   # overlaps k1
        log.events.add("", "pin", "p", 0.0, 1.0, None, None, None, None, ())
        with pytest.raises(EventLogError, match="event #3"):
            ev.validate_log(log, horizon=5.0)


@pytest.mark.parametrize("record", [False, True], ids=["lean", "recorded"])
class TestTypedErrorsAtTheDoor:
    """Bad input is rejected at emit, the same way in both modes."""

    def test_unknown_counter(self, record):
        log = EventLog(record=record)
        bad = {"bytes_h2d": 1, "not_a_counter": 1}
        with pytest.raises(TypeError, match="unknown counter field 'not_a"):
            log.emit_op("gpu", "kernel", "k", 0.0, 1.0, counters=bad)
        with pytest.raises(TypeError, match="unknown counter field 'not_a"):
            log.marker("uvm-fault", "t", 0.0, counters=bad)
        with pytest.raises(TypeError, match="unknown counter field 'not_a"):
            log.emit_batch("gpu", "kernel", "k", np.zeros(1), np.ones(1),
                           counters={k: np.ones(1) for k in bad})
        # Rejected before anything was folded or retained.
        assert folds_of(log) == folds_of(EventLog())
        assert len(log.events) == 0

    def test_marker_block_takes_no_counters(self, record):
        with pytest.raises(TypeError):
            EventLog(record=record).marker_block(
                "access-path", ["gather"], 0.0, counters={"bytes_h2d": 1})

    def test_op_ending_before_it_starts(self, record):
        log = EventLog(record=record)
        log.current_phase = "Tsr"
        with pytest.raises(ValueError, match="ends before it starts"):
            log.emit_op("gpu", "kernel", "k", 2.0, 1.0)
        with pytest.raises(ValueError, match="ends before it starts"):
            log.emit_batch("gpu", "kernel", "k", np.array([0.0, 2.0]),
                           np.array([1.0, 1.0]))
        assert log.lane_stats == {} and not log.metrics.phase_seconds
        assert len(log.events) == 0

    def test_marker_block_shape_mismatch(self, record):
        log = EventLog(record=record)
        with pytest.raises(ValueError, match="shape mismatch"):
            log.marker_block("access-path", ["a", "b"], 0.0, ("n",), ([1.0],))
        with pytest.raises(ValueError, match="shape mismatch"):
            log.marker_block("access-path", ["a"], 0.0, ("n", "m"), ([1.0],))


class TestLeanLogRetainsNothing:
    def test_counterless_markers_leave_no_trace(self):
        log = EventLog(record=False)
        log.marker("access-path", "Ascetic:chunk", 1.0,
                   extra=(("gather", 3.0),))
        log.marker_block("access-path", ["gather"] * 3, 1.0, ("n",),
                         ([1.0, 2.0, 3.0],))
        assert len(log.events) == 0
        assert folds_of(log) == folds_of(EventLog())

    def test_counted_marker_still_folds(self):
        log = EventLog(record=False)
        log.marker("uvm-fault", "t", 1.0, counters={"page_faults": 4})
        assert log.metrics.page_faults == 4 and len(log.events) == 0


class TestRowView:
    def rows(self):
        log = EventLog(record=True)
        log.current_phase, log.current_iteration = "Tsr", 2
        log.emit_op("gpu", "kernel", "k", 0.0, 1.0,
                    counters={"edges_processed": 7, "kernel_launches": 1})
        log.marker_block("access-path", ["resident", "gather"], 1.0,
                         ("chunk_lo", "n"), ([0.0, 4.0], [4.0, 2.0]))
        log.marker("alloc-fault", "static_region", 1.0, device=3,
                   extra=(("requested", 4096),))
        return log.events

    def test_reads_like_the_list_it_replaces(self):
        cols = self.rows()
        assert len(cols) == 4 and cols
        got = rows(cols)
        assert got[0] == SimEvent(
            "gpu", "kernel", "k", 0.0, 1.0, phase="Tsr", iteration=2,
            kernel_launches=1, edges_processed=7)
        assert got[-1].device == 3 and got[-1].extra == (("requested", 4096),)
        assert [e.label for e in got[1:3]] == ["resident", "gather"]
        assert got[2].extra == (("chunk_lo", 4.0), ("n", 2.0))
        # A mask's row numbers decode just those rows, in order.
        assert [row[2] for row in cols.rows([1, 3])] == ["resident",
                                                         "static_region"]
        assert list(cols.rows([])) == []
        assert json.dumps(columns(got).to_dicts()) == json.dumps(
            cols.to_dicts())

    def test_an_int_stays_an_int_in_the_json(self):
        text = json.dumps(self.rows().to_dicts())
        assert '"requested", 4096]' in text and '"n", 2.0]' in text
        # Counters come out in COUNTER_FIELDS order whatever the call order.
        assert text.index("kernel_launches") < text.index("edges_processed")


class TestTheLogIsColumns:
    """Under ``src/`` a log has one form: no module names the row class,
    and the store has no row protocol to fall back on."""

    def test_no_module_under_src_names_the_row_class(self):
        offenders = [str(path.relative_to(SRC))
                     for path in sorted(SRC.rglob("*.py"))
                     if "SimEvent" in path.read_text()]
        assert offenders == []

    @pytest.mark.parametrize("method", ["__iter__", "__getitem__", "__eq__"])
    def test_event_columns_materializes_no_rows(self, method):
        assert not any(method in vars(cls) for cls in EventColumns.__mro__
                       if cls is not object)
