"""Object-per-row twins of the columnar event log, kept as test oracles.

Until the columnar store (``repro.gpusim.events.EventColumns``) every
recorded row was one frozen ``SimEvent`` and every reader a Python loop over
a list of them.  Those loops are the reference the column folds must equal
bit for bit — float accumulation order included — so their bodies live on
here, moved verbatim from ``src/``: ``EventLog.emit``, ``_apply``, the
``fold_*`` family, ``idle_breakdown``, ``validate_log`` and the Chrome-trace
export with its ``_event_args``.  :class:`OracleLog`'s other doors build the
``SimEvent`` the old recorded paths built and hand it to ``emit``.

Nothing under ``src/`` imports this module.
"""

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.traces import LANE_TIDS, MARKER_TID
from repro.gpusim.events import (
    COUNTER_FIELDS,
    DEVICE_FAULT_KINDS,
    FAULT_KINDS,
    EventLogError,
    IdleBreakdown,
    LaneStats,
    SimEvent,
    Span,
    lane_key,
)
from repro.gpusim.metrics import Metrics


class OracleLog:
    """The recorded-mode ``EventLog`` as it was: a list of ``SimEvent``."""

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.events: List[SimEvent] = []
        self.metrics = Metrics()
        self.lane_stats: Dict[str, LaneStats] = {}
        self.current_phase: Optional[str] = None
        self.current_iteration: Optional[int] = None

    def emit(self, event: SimEvent) -> SimEvent:
        """Fold ``event`` into the counters (and retain it when recording)."""
        _apply(self.metrics, event)
        if event.lane:
            key = lane_key(event)
            stats = self.lane_stats.get(key)
            if stats is None:
                stats = self.lane_stats[key] = LaneStats()
            stats.busy_seconds += event.end - event.start
            stats.n_ops += 1
            if event.start < stats.first_start:
                stats.first_start = event.start
            if event.end > stats.last_end:
                stats.last_end = event.end
        if self.record:
            self.events.append(event)
        return event

    def emit_op(self, lane: str, kind: str, label: str, start: float,
                end: float, counters: Optional[Mapping[str, Any]] = None,
                extra: Tuple[Tuple[str, float], ...] = (),
                device: Optional[int] = None) -> None:
        self.emit(SimEvent(
            lane=lane, kind=kind, label=label, start=start, end=end,
            phase=self.current_phase, iteration=self.current_iteration,
            device=device, extra=extra, **dict(counters or {}),
        ))

    def emit_batch(self, lane: str, kind: str, label: str, starts, ends,
                   counters: Optional[Mapping[str, Any]] = None,
                   device: Optional[int] = None) -> None:
        cols = {name: np.asarray(col) for name, col in (counters or {}).items()}
        phase, it = self.current_phase, self.current_iteration
        for i in range(len(starts)):
            row = {name: col[i].item() for name, col in cols.items()
                   if col[i]}
            self.emit(SimEvent(
                lane=lane, kind=kind, label=label,
                start=float(starts[i]), end=float(ends[i]),
                phase=phase, iteration=it, device=device, **row,
            ))

    def marker(self, kind: str, label: str, t: float,
               counters: Optional[Mapping[str, int]] = None,
               extra: Tuple[Tuple[str, float], ...] = (),
               device: Optional[int] = None) -> SimEvent:
        return self.emit(SimEvent(
            lane="", kind=kind, label=label, start=t, end=t,
            phase=self.current_phase, iteration=self.current_iteration,
            device=device, extra=extra, **dict(counters or {}),
        ))

    def marker_block(self, kind: str, labels, t: float, extra_keys=(),
                     extra_cols=(), device: Optional[int] = None) -> None:
        for i, label in enumerate(labels):
            self.marker(kind, label, t, device=device,
                        extra=tuple((key, col[i]) for key, col
                                    in zip(extra_keys, extra_cols)))

    def _require_recorded(self, what: str) -> None:
        if not self.record:
            raise EventLogError(f"{what} needs a recorded log; this one is lean")


# ------------------------------------------------------------------- folds
def _apply(metrics: Metrics, event: SimEvent) -> None:
    """Fold one event into a counter bundle (the single accounting path)."""
    if event.bytes_h2d:
        metrics.bytes_h2d += event.bytes_h2d
    if event.bytes_d2h:
        metrics.bytes_d2h += event.bytes_d2h
    if event.h2d_transfers:
        metrics.h2d_transfers += event.h2d_transfers
    if event.d2h_transfers:
        metrics.d2h_transfers += event.d2h_transfers
    if event.bytes_direct:
        metrics.bytes_direct += event.bytes_direct
    if event.direct_accesses:
        metrics.direct_accesses += event.direct_accesses
    if event.kernel_launches:
        metrics.kernel_launches += event.kernel_launches
    if event.edges_processed:
        metrics.edges_processed += event.edges_processed
    if event.page_faults:
        metrics.page_faults += event.page_faults
    if event.fault_batches:
        metrics.fault_batches += event.fault_batches
    if event.pages_migrated:
        metrics.pages_migrated += event.pages_migrated
    if event.pages_evicted:
        metrics.pages_evicted += event.pages_evicted
    if event.transfer_faults:
        metrics.transfer_faults += event.transfer_faults
    if event.transfer_retries:
        metrics.transfer_retries += event.transfer_retries
    if event.kernel_aborts:
        metrics.kernel_aborts += event.kernel_aborts
    if event.retry_seconds:
        metrics.retry_seconds += event.retry_seconds
    if event.phase is not None and event.end > event.start:
        metrics.add_phase(event.phase, event.end - event.start)


def fold_metrics(events: Iterable[SimEvent]) -> Metrics:
    """Replay a list of events into a fresh counter bundle.

    Addition order matches emission order, so on a recorded log this
    reproduces ``log.metrics`` bit-identically — the property
    :func:`validate_log` asserts.
    """
    metrics = Metrics()
    for event in events:
        _apply(metrics, event)
    return metrics


def fold_spans(events: Iterable[SimEvent]) -> List[Span]:
    """The legacy span timeline: one span per lane-occupying event."""
    return [
        Span(lane=lane_key(e), label=e.label, start=e.start, end=e.end)
        for e in events
        if e.lane and e.end > e.start
    ]


def fold_phase_seconds(events: Iterable[SimEvent]) -> Dict[str, float]:
    """Per-phase accumulated seconds (Fig. 10's Tsr/Tfilling/... bars)."""
    return dict(fold_metrics(events).phase_seconds)


def fold_lane_stats(events: Iterable[SimEvent]) -> Dict[str, LaneStats]:
    """Per-lane busy/op aggregates, identical to the lean-mode fold."""
    stats: Dict[str, LaneStats] = {}
    for e in events:
        if not e.lane:
            continue
        key = lane_key(e)
        st = stats.get(key)
        if st is None:
            st = stats[key] = LaneStats()
        st.busy_seconds += e.end - e.start
        st.n_ops += 1
        if e.start < st.first_start:
            st.first_start = e.start
        if e.end > st.last_end:
            st.last_end = e.end
    return stats


def fold_device_metrics(events: Iterable[SimEvent]) -> Dict[Optional[int], Metrics]:
    """Per-device counter bundles from a shared (fabric) event log.

    Events carrying no ``device`` fold under the ``None`` key, so a
    single-device log comes back as ``{None: fold_metrics(events)}``.
    """
    out: Dict[Optional[int], Metrics] = {}
    for e in events:
        metrics = out.get(e.device)
        if metrics is None:
            metrics = out[e.device] = Metrics()
        _apply(metrics, e)
    return out


def fold_device_faults(
    events: Iterable[SimEvent],
) -> Dict[Optional[int], Dict[str, int]]:
    """Per-device fault/recovery counts from a recorded log.

    Counts every :data:`FAULT_KINDS` / :data:`DEVICE_FAULT_KINDS` event
    under its device (``None`` for device-less events), keyed
    ``fault_<kind>`` to match the ``fault_*`` naming of
    ``RunResult.extra``.  A fault-free log folds to ``{}``, so asserting
    byte-identical single-device behaviour stays a one-liner.
    """
    out: Dict[Optional[int], Dict[str, int]] = {}
    for e in events:
        if e.kind not in FAULT_KINDS and e.kind not in DEVICE_FAULT_KINDS:
            continue
        bucket = out.setdefault(e.device, {})
        key = "fault_" + e.kind.replace("-", "_")
        bucket[key] = bucket.get(key, 0) + 1
    return out


def idle_breakdown(
    log: "OracleLog | Iterable[SimEvent]", lane: str, horizon: float
) -> IdleBreakdown:
    """Attribute a lane's idle time to lead / stalls / tail.

    The old ``horizon - busy_seconds`` subtraction could not tell a lane
    that simply *started late* (e.g. the GPU waiting for the one-time
    vertex-state upload) from one stalling mid-run (§2.2's sequential
    pipeline).  Works on a recorded :class:`EventLog` or a raw event list.
    """
    if isinstance(log, OracleLog):
        log._require_recorded("idle_breakdown()")
        events = log.events
    else:
        events = list(log)
    ops = sorted(
        ((e.start, e.end) for e in events
         if e.lane and lane_key(e) == lane and e.end > e.start),
    )
    retry = sum(
        min(e.end, horizon) - min(e.start, horizon)
        for e in events
        if e.lane and lane_key(e) == lane and e.end > e.start
        and e.kind in FAULT_KINDS
    )
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    if not ops:
        return IdleBreakdown(lead=horizon, stall=0.0, tail=0.0,
                             busy=0.0, horizon=horizon)
    lead = min(ops[0][0], horizon)
    busy = 0.0
    stall = 0.0
    prev_end = ops[0][0]
    for start, end in ops:
        if start > prev_end:
            stall += min(start, horizon) - min(prev_end, horizon)
        busy += min(end, horizon) - min(start, horizon)
        prev_end = max(prev_end, end)
    tail = max(horizon - prev_end, 0.0)
    return IdleBreakdown(lead=lead, stall=stall, tail=tail,
                         busy=busy, horizon=horizon, retry=retry)


# -------------------------------------------------------------- validation
def validate_log(
    log: OracleLog,
    metrics: Optional[Metrics] = None,
    horizon: Optional[float] = None,
) -> Metrics:
    """Assert the event log's consistency invariants; returns the re-fold.

    Checks, raising :class:`EventLogError` on the first violation:

    * every event is well-formed (``start <= end``, non-negative times);
    * per lane, events are monotone and **never self-overlap** (a lane is
      one serially-ordered engine);
    * instant events occupy no lane;
    * re-folding the retained events reproduces the incrementally
      maintained ``log.metrics`` **bit-identically** (counters *and*
      ``phase_seconds``), and likewise the per-lane stats;
    * when ``metrics`` is given (e.g. a ``RunResult.metrics``), it equals
      the fold too;
    * when ``horizon`` is given, no event ends after it.
    """
    log._require_recorded("validate_log()")
    last_end: Dict[str, float] = {}
    for i, e in enumerate(log.events):
        where = f"event #{i} ({e.kind} {e.label!r})"
        if e.start < 0 or e.end < e.start:
            raise EventLogError(f"{where}: bad interval [{e.start}, {e.end}]")
        if horizon is not None and e.end > horizon:
            raise EventLogError(
                f"{where}: ends at {e.end} beyond horizon {horizon}"
            )
        if not e.lane:
            if e.end != e.start:
                raise EventLogError(f"{where}: lane-less event has width")
            continue
        key = lane_key(e)
        prev = last_end.get(key)
        if prev is not None and e.start < prev:
            raise EventLogError(
                f"{where}: lane {key!r} self-overlaps "
                f"(starts at {e.start} before previous end {prev})"
            )
        last_end[key] = e.end

    folded = fold_metrics(log.events)
    _require_metrics_equal(folded, log.metrics, "incrementally folded metrics")
    if metrics is not None and metrics is not log.metrics:
        _require_metrics_equal(folded, metrics, "reported metrics")

    refolded_stats = fold_lane_stats(log.events)
    if set(refolded_stats) != set(log.lane_stats):
        raise EventLogError(
            f"lane set mismatch: fold has {sorted(refolded_stats)}, "
            f"log has {sorted(log.lane_stats)}"
        )
    for lane, st in refolded_stats.items():
        have = log.lane_stats[lane]
        if (st.busy_seconds != have.busy_seconds or st.n_ops != have.n_ops
                or st.first_start != have.first_start
                or st.last_end != have.last_end):
            raise EventLogError(f"lane {lane!r}: folded stats diverge")
    return folded


def _require_metrics_equal(folded: Metrics, other: Metrics, what: str) -> None:
    for name in COUNTER_FIELDS:
        a, b = getattr(folded, name), getattr(other, name)
        if a != b:
            raise EventLogError(
                f"{what} diverge on {name}: fold={a} counters={b}"
            )
    if dict(folded.phase_seconds) != dict(other.phase_seconds):
        raise EventLogError(
            f"{what} diverge on phase_seconds: "
            f"fold={dict(folded.phase_seconds)} counters={dict(other.phase_seconds)}"
        )


# ------------------------------------------------------ Chrome-trace export
def _event_args(e: SimEvent) -> Dict[str, Any]:
    """The per-slice ``args`` payload shared by both export modes."""
    args: Dict[str, Any] = {"kind": e.kind}
    if e.phase is not None:
        args["phase"] = e.phase
    if e.iteration is not None:
        args["iteration"] = e.iteration
    args.update({k: v for k, v in e.to_dict().items()
                 if k not in ("lane", "kind", "label", "start", "end",
                              "phase", "iteration", "device", "extra")})
    args.update(dict(e.extra))
    return args


def chrome_trace_events(events: List[SimEvent]) -> List[Dict[str, Any]]:
    """The per-event Chrome-trace export, as it was (takes the event list)."""
    devices = sorted({e.device for e in events if e.device is not None})
    if devices:
        return _multi_device_trace_events(events, devices)
    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "repro-sim"},
    }]
    for lane, tid in sorted(LANE_TIDS.items(), key=lambda kv: kv[1]):
        out.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": lane},
        })
    out.append({
        "name": "thread_name", "ph": "M", "pid": 0, "tid": MARKER_TID,
        "args": {"name": "markers"},
    })
    next_tid = MARKER_TID + 1
    tids = dict(LANE_TIDS)
    for e in events:
        args = _event_args(e)
        if e.is_instant:
            out.append({
                "name": e.label or e.kind, "ph": "i", "s": "t",
                "ts": e.start * 1e6, "pid": 0, "tid": MARKER_TID,
                "cat": e.kind, "args": args,
            })
            continue
        tid = tids.get(e.lane)
        if tid is None:  # an engine invented a lane: give it its own row
            tid = tids[e.lane] = next_tid
            next_tid += 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": e.lane},
            })
        out.append({
            "name": e.label or e.kind, "ph": "X",
            "ts": e.start * 1e6, "dur": e.duration * 1e6,
            "pid": 0, "tid": tid,
            # Fault/retry slices keep their own category even inside a
            # phase, so Perfetto can colour and filter chaos activity.
            "cat": e.kind if e.kind in FAULT_KINDS else (e.phase or e.kind),
            "args": args,
        })
    return out


def _multi_device_trace_events(events: List[SimEvent],
                               devices: List[int]) -> List[Dict[str, Any]]:
    """The fabric export: one Chrome-trace process per device.

    Device ids become pids directly; device-less markers (serve-layer
    request lifecycle, fabric-wide bookkeeping) live in a separate
    ``repro-fabric`` process one pid above the highest device.
    """
    fabric_pid = max(devices) + 1
    out: List[Dict[str, Any]] = []
    tids: Dict[int, Dict[str, int]] = {}
    next_tid: Dict[int, int] = {}
    for d in devices:
        out.append({
            "name": "process_name", "ph": "M", "pid": d, "tid": 0,
            "args": {"name": f"repro-sim:dev{d}"},
        })
        for lane, tid in sorted(LANE_TIDS.items(), key=lambda kv: kv[1]):
            out.append({
                "name": "thread_name", "ph": "M", "pid": d, "tid": tid,
                "args": {"name": lane},
            })
        out.append({
            "name": "thread_name", "ph": "M", "pid": d, "tid": MARKER_TID,
            "args": {"name": "markers"},
        })
        tids[d] = dict(LANE_TIDS)
        next_tid[d] = MARKER_TID + 1
    out.append({
        "name": "process_name", "ph": "M", "pid": fabric_pid, "tid": 0,
        "args": {"name": "repro-fabric"},
    })
    out.append({
        "name": "thread_name", "ph": "M", "pid": fabric_pid,
        "tid": MARKER_TID, "args": {"name": "markers"},
    })
    fault_counts: Dict[int, Dict[str, int]] = {}
    for e in events:
        args = _event_args(e)
        pid = e.device if e.device is not None else fabric_pid
        if e.kind in FAULT_KINDS or e.kind in DEVICE_FAULT_KINDS:
            # Running per-device fault counters, one Chrome counter track
            # per process: fold_device_faults as a timeline.
            counts = fault_counts.setdefault(pid, {})
            key = "fault_" + e.kind.replace("-", "_")
            counts[key] = counts.get(key, 0) + 1
            out.append({
                "name": "faults", "ph": "C", "ts": e.start * 1e6,
                "pid": pid, "args": dict(sorted(counts.items())),
            })
        if e.is_instant:
            out.append({
                "name": e.label or e.kind, "ph": "i", "s": "t",
                "ts": e.start * 1e6, "pid": pid, "tid": MARKER_TID,
                "cat": e.kind, "args": args,
            })
            continue
        lane_tids = tids.setdefault(pid, {})
        tid = lane_tids.get(e.lane)
        if tid is None:
            tid = lane_tids[e.lane] = next_tid.get(pid, MARKER_TID + 1)
            next_tid[pid] = tid + 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": e.lane},
            })
        out.append({
            "name": e.label or e.kind, "ph": "X",
            "ts": e.start * 1e6, "dur": e.duration * 1e6,
            "pid": pid, "tid": tid,
            "cat": e.kind if e.kind in FAULT_KINDS else (e.phase or e.kind),
            "args": args,
        })
    return out
