"""Object-per-row twins of the columnar event log, kept as test oracles.

Until the columnar store (``repro.gpusim.events.EventColumns``) every
recorded row was one frozen :class:`SimEvent` and every reader a Python loop
over a list of them.  Those loops are the reference the column folds must
equal bit for bit — float accumulation order included — so their bodies
live on here, moved verbatim from ``src/``: ``SimEvent`` with ``lane_key``,
``EventLog.emit``, ``_apply``, the ``fold_*`` family, ``idle_breakdown``,
``validate_log``, the Chrome-trace export with its ``_event_args``,
``serve.slo.fold_slo`` and ``fabric.fold_exchange_bytes``.
:class:`OracleLog`'s other doors build the ``SimEvent`` the old recorded
paths built and hand it to ``emit``.

:func:`rows` decodes a log's columns into ``SimEvent`` rows and
:func:`columns` loads rows into a fresh store, so a test can read or plant
rows one object at a time.

Nothing under ``src/`` imports this module.
"""

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.traces import LANE_TIDS, MARKER_TID
from repro.gpusim.events import (
    COUNTER_FIELDS,
    DEVICE_FAULT_KINDS,
    FAULT_KINDS,
    EventColumns,
    EventLogError,
    IdleBreakdown,
    LaneStats,
    Span,
)
from repro.gpusim.metrics import Metrics
from repro.serve.slo import _DEGRADED_KINDS, SLO_SCHEMA, _percentiles


@dataclass(frozen=True)
class SimEvent:
    """One simulated activity, with everything needed to explain it.

    ``lane`` names the engine the activity occupied (``gpu`` / ``copy`` /
    ``cpu``); an empty lane marks an *instant* bookkeeping event (UVM
    faults, pins, prefetches) that occupies no lane time.  The counter
    fields are this event's *contribution* to the run's
    :class:`~repro.gpusim.metrics.Metrics` — the fold is a plain sum, so
    an event carries exactly the deltas the legacy call site added.
    ``extra`` holds descriptive key/value pairs (trace-export args) that
    do not fold into any counter.

    ``device`` identifies the simulated device the activity belongs to
    when several :class:`~repro.gpusim.device.SimulatedGPU` instances
    share one log (a :class:`~repro.gpusim.fabric.Fabric`).  ``None`` —
    the single-device default — serializes to nothing, so single-device
    logs and digests are unchanged.
    """

    lane: str
    kind: str
    label: str
    start: float
    end: float
    phase: Optional[str] = None
    iteration: Optional[int] = None
    device: Optional[int] = None
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    h2d_transfers: int = 0
    d2h_transfers: int = 0
    bytes_direct: int = 0
    direct_accesses: int = 0
    kernel_launches: int = 0
    edges_processed: int = 0
    page_faults: int = 0
    fault_batches: int = 0
    pages_migrated: int = 0
    pages_evicted: int = 0
    transfer_faults: int = 0
    transfer_retries: int = 0
    kernel_aborts: int = 0
    retry_seconds: float = 0.0
    extra: Tuple[Tuple[str, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        """Whether this is a zero-width bookkeeping marker (no lane time)."""
        return not self.lane

    # ------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON-able form: default-valued fields are omitted."""
        out: Dict[str, Any] = {
            "lane": self.lane,
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "end": self.end,
        }
        if self.phase is not None:
            out["phase"] = self.phase
        if self.iteration is not None:
            out["iteration"] = self.iteration
        if self.device is not None:
            out["device"] = self.device
        for name in COUNTER_FIELDS:
            value = getattr(self, name)
            if value:
                out[name] = value
        if self.extra:
            out["extra"] = [[k, v] for k, v in self.extra]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimEvent":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        extra = kwargs.pop("extra", None)
        if extra:
            kwargs["extra"] = tuple((str(k), v) for k, v in extra)
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown SimEvent fields: {sorted(unknown)}")
        return cls(**kwargs)


def lane_key(event: SimEvent) -> str:
    """The lane-identity key an event's lane time is accounted under.

    Single-device events (``device is None``) keep the bare lane name.
    Events from a multi-device fabric are qualified as ``"<lane>@<device>"``.
    """
    if event.device is None:
        return event.lane
    return f"{event.lane}@{event.device}"


def rows(cols: EventColumns) -> List[SimEvent]:
    """Every row of ``cols`` as a :class:`SimEvent`, in row order."""
    return [
        SimEvent(lane, kind, label, start, end, phase, iteration, device,
                 extra=tuple(zip(xkeys, xvals)), **dict(zip(cnames, cvals)))
        for ((lane, device), kind, label, phase, iteration, start, end,
             cnames, cvals, xkeys, xvals) in cols.rows()
    ]


def columns(events: Iterable[SimEvent]) -> EventColumns:
    """``events`` loaded into a fresh store — stored only, folded into
    nothing, so a test can plant a row no emitter would produce."""
    cols = EventColumns()
    for e in events:
        cols.add(e.lane, e.kind, e.label, e.start, e.end, e.phase,
                 e.iteration, e.device,
                 {name: getattr(e, name) for name in COUNTER_FIELDS}, e.extra)
    return cols


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

    def emit_row(self, data: Mapping[str, Any]) -> SimEvent:
        """Replay one serialized row."""
        return self.emit(SimEvent.from_dict(data))

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


# ------------------------------------------------------- serving-layer folds
def fold_slo(events: Iterable[SimEvent], horizon: float | None = None) -> Dict[str, Any]:
    """Fold request-lifecycle markers into the SLO report dict.

    ``horizon`` (the load test's end time) defaults to the latest event
    timestamp; goodput and throughput are completions per simulated
    second over it.
    """
    arrive: Dict[int, SimEvent] = {}
    start: Dict[int, SimEvent] = {}
    complete: Dict[int, SimEvent] = {}
    shed: Dict[int, SimEvent] = {}
    admitted = 0
    warm_hits = 0
    warm_misses = 0
    dispatches: List[SimEvent] = []
    fault_markers: List[SimEvent] = []
    last_t = 0.0
    for e in events:
        # Fault-timeline markers are emitted eagerly at *plan* times, which
        # can sit far beyond the load test; they must not stretch the
        # default horizon.
        if e.kind not in _DEGRADED_KINDS:
            last_t = max(last_t, e.end)
        extra = dict(e.extra)
        rid = int(extra["request"]) if "request" in extra else None
        if e.kind == "request-arrive":
            arrive[rid] = e
        elif e.kind == "request-admit":
            admitted += 1
        elif e.kind == "request-shed":
            shed[rid] = e
        elif e.kind == "request-start":
            start[rid] = e
        elif e.kind == "request-complete":
            complete[rid] = e
        elif e.kind == "warm-hit":
            warm_hits += 1
        elif e.kind == "warm-miss":
            warm_misses += 1
        elif e.kind == "dispatch":
            dispatches.append(e)
        elif e.kind in _DEGRADED_KINDS:
            fault_markers.append(e)
    if horizon is None:
        horizon = last_t
    # A fault scheduled beyond the horizon never touched any request: the
    # report stays exactly fault-free.
    fault_markers = [e for e in fault_markers if e.start <= horizon]

    e2e: List[float] = []
    queue: List[float] = []
    service: List[float] = []
    deadline_met = 0
    tenants: Dict[str, Dict[str, float]] = {}

    def tenant_of(event: SimEvent) -> str:
        return event.label.split("/", 2)[0]

    def tenant_bucket(name: str) -> Dict[str, float]:
        bucket = tenants.get(name)
        if bucket is None:
            bucket = tenants[name] = {
                "arrived": 0, "shed": 0, "completed": 0,
                "e2e_seconds": 0.0, "service_seconds": 0.0,
            }
        return bucket

    for rid, ev in sorted(arrive.items()):
        tenant_bucket(tenant_of(ev))["arrived"] += 1
    for rid in sorted(shed):
        came = arrive.get(rid)
        if came is None:
            continue  # torn lifecycle: the shed label is a reason, not a tenant
        tenant_bucket(tenant_of(came))["shed"] += 1
    for rid, done in sorted(complete.items()):
        came = arrive.get(rid)
        began = start.get(rid)
        if came is None or began is None:
            continue  # torn lifecycle (clipped log) — not countable
        e2e.append(done.end - came.start)
        queue.append(began.start - came.start)
        service.append(done.end - began.start)
        deadline = dict(came.extra).get("deadline", -1.0)
        if deadline < 0 or done.end <= deadline:
            deadline_met += 1
        bucket = tenant_bucket(tenant_of(came))
        bucket["completed"] += 1
        bucket["e2e_seconds"] += done.end - came.start
        bucket["service_seconds"] += done.end - began.start

    arrived = len(arrive)
    completed = len(complete)
    out = {
        "schema": SLO_SCHEMA,
        "horizon_seconds": horizon,
        "counts": {
            "arrived": arrived,
            "admitted": admitted,
            "shed": len(shed),
            "completed": completed,
            "deadline_met": deadline_met,
        },
        "latency_seconds": {
            "e2e": _percentiles(e2e),
            "queue": _percentiles(queue),
            "service": _percentiles(service),
        },
        "throughput_per_second": completed / horizon if horizon > 0 else 0.0,
        "goodput_per_second": deadline_met / horizon if horizon > 0 else 0.0,
        "shed_rate": len(shed) / arrived if arrived else 0.0,
        "warm": {"hits": warm_hits, "misses": warm_misses},
        "tenants": {name: tenants[name] for name in sorted(tenants)},
        "fleet": _fold_fleet(dispatches, horizon),
    }
    if fault_markers:
        out["degraded"] = _fold_degraded(fault_markers, arrive, complete,
                                         horizon)
    return out


def _fold_degraded(markers: List[SimEvent], arrive: Dict[int, SimEvent],
                   complete: Dict[int, SimEvent],
                   horizon: float) -> Dict[str, Any]:
    """The failure ledger: downtime, failover counts, goodput-under-failure.

    ``device-down`` / ``device-up`` pairs bound each device's outage
    windows (an unclosed window — a permanent loss — runs to the horizon).
    ``device-fail`` counts dispatch attempts that hit a dead device,
    ``request-retry`` counts per-request relocations, and
    ``breaker-open`` / ``breaker-close`` count circuit-breaker trips.
    ``goodput_under_failure`` is deadline-met completions per second inside
    the union of all outage windows — the fleet's delivered quality while
    running short-handed.
    """
    open_at: Dict[int, float] = {}
    windows: List[tuple] = []  # (start, end, device)
    per_device: Dict[int, Dict[str, float]] = {}

    def bucket(d: int) -> Dict[str, float]:
        b = per_device.get(d)
        if b is None:
            b = per_device[d] = {
                "downtime_seconds": 0.0, "outages": 0,
                "dispatch_failures": 0, "breaker_opens": 0,
            }
        return b

    retried: Dict[int, int] = {}
    breaker_closes = 0
    for e in markers:
        extra = dict(e.extra)
        dev = e.device if e.device is not None \
            else int(extra.get("device", -1))
        if e.kind == "device-down":
            open_at.setdefault(dev, e.start)
        elif e.kind == "device-up":
            t0 = open_at.pop(dev, None)
            if t0 is not None:
                windows.append((t0, e.start, dev))
        elif e.kind == "device-fail":
            bucket(dev)["dispatch_failures"] += 1
        elif e.kind == "breaker-open":
            bucket(dev)["breaker_opens"] += 1
        elif e.kind == "breaker-close":
            breaker_closes += 1
        elif e.kind == "request-retry":
            rid = int(extra.get("request", -1))
            retried[rid] = retried.get(rid, 0) + 1
    for dev, t0 in sorted(open_at.items()):
        windows.append((t0, max(horizon, t0), dev))
    for t0, t1, dev in windows:
        b = bucket(dev)
        b["downtime_seconds"] += t1 - t0
        b["outages"] += 1

    # Union of all outage intervals → time the fleet ran short-handed.
    merged: List[List[float]] = []
    for t0, t1, _ in sorted(windows):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    degraded_seconds = sum(t1 - t0 for t0, t1 in merged)
    met_during = 0
    for rid, done in sorted(complete.items()):
        came = arrive.get(rid)
        if came is None:
            continue
        deadline = dict(came.extra).get("deadline", -1.0)
        if deadline >= 0 and done.end > deadline:
            continue
        if any(t0 <= done.end <= t1 for t0, t1 in merged):
            met_during += 1

    return {
        "devices": {str(d): per_device[d] for d in sorted(per_device)},
        "degraded_seconds": degraded_seconds,
        "retried_requests": sum(retried.values()),
        "relocated_requests": len(retried),
        "breaker_closes": breaker_closes,
        "goodput_under_failure": (met_during / degraded_seconds
                                  if degraded_seconds > 0 else 0.0),
    }


def _fold_fleet(dispatches: List[SimEvent],
                horizon: float) -> Dict[str, Any]:
    """Per-device utilization and exchange traffic from ``dispatch`` markers.

    Each dispatch emits one instant ``dispatch`` event carrying the
    serving device (``-1`` = a fabric-wide sharded run occupying every
    device), the batch size, the service seconds, and — for sharded
    dispatches — the inter-device exchange bytes the run charged.  A
    fabric-wide dispatch's busy time is credited to *every* device listed
    in its ``devices`` count, so per-device utilization reflects real
    occupancy either way.
    """
    devices: Dict[int, Dict[str, float]] = {}

    def bucket(d: int) -> Dict[str, float]:
        b = devices.get(d)
        if b is None:
            b = devices[d] = {
                "dispatches": 0, "requests": 0,
                "busy_seconds": 0.0, "exchange_bytes": 0.0,
            }
        return b

    sharded = 0
    exchange_total = 0.0
    for e in dispatches:
        extra = dict(e.extra)
        dev = int(extra.get("device", 0))
        service = float(extra.get("service", 0.0))
        n_req = int(extra.get("requests", 1))
        xbytes = float(extra.get("exchange_bytes", 0.0))
        exchange_total += xbytes
        if dev < 0:
            sharded += 1
            n_dev = max(int(extra.get("devices", 1)), 1)
            for d in range(n_dev):
                b = bucket(d)
                b["busy_seconds"] += service
                b["exchange_bytes"] += xbytes / n_dev
            b = bucket(dev)  # the fabric-wide ledger itself
            b["dispatches"] += 1
            b["requests"] += n_req
            b["busy_seconds"] += service
            b["exchange_bytes"] += xbytes
        else:
            b = bucket(dev)
            b["dispatches"] += 1
            b["requests"] += n_req
            b["busy_seconds"] += service
    for b in devices.values():
        b["utilization"] = (b["busy_seconds"] / horizon
                            if horizon and horizon > 0 else 0.0)
    return {
        "devices": {
            ("fabric" if d < 0 else str(d)): devices[d]
            for d in sorted(devices)
        },
        "n_dispatches": len(dispatches),
        "sharded_dispatches": sharded,
        "exchange_bytes": exchange_total,
    }


def fold_exchange_bytes(events) -> Dict[int, int]:
    """Per-source-device exchange bytes from a recorded fabric log.

    A pure fold over ``d2d`` events (payload rides in ``extra`` — exchange
    traffic deliberately touches no :class:`~repro.gpusim.metrics.Metrics`
    counter, keeping single-device folds untouched).
    """
    out: Dict[int, int] = {}
    for e in events:
        if e.kind != "d2d" or e.device is None:
            continue
        nbytes = int(dict(e.extra).get("bytes", 0.0))
        out[e.device] = out.get(e.device, 0) + nbytes
    return out
