"""The event log's readers, specified over decoded rows.

Each function states what a reader of ``gpusim.events``,
``analysis.traces`` or ``serve.slo`` must return, written from its
definition, not its code.  Float sums run one row at a time in the order
the definition names: addition is not associative, and digests are pinned.

Oracle table — each oracle's name and kind (``spec``: written from a
definition)::

    SimEvent             spec
    rows                 spec
    columns              spec
    fold_metrics         spec
    fold_lane_stats      spec
    fold_spans           spec
    fold_device_faults   spec
    idle_breakdown       spec
    first_offence        spec
    check_chrome_trace   spec
    nearest_rank         spec
    fold_slo             spec
    fold_fleet           spec
    fold_degraded        spec
    fold_exchange_bytes  spec

Nothing under ``src/`` imports this module.
"""

import math
from collections import Counter, defaultdict
from dataclasses import fields, make_dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.traces import LANE_TIDS, MARKER_TID
from repro.gpusim.events import (
    COUNTER_FIELDS,
    DEVICE_FAULT_KINDS,
    FAULT_KINDS,
    EventColumns,
    IdleBreakdown,
    LaneStats,
    Span,
)
from repro.gpusim.metrics import Metrics
from repro.serve.slo import _DEGRADED_KINDS, SLO_SCHEMA


class SimEvent(make_dataclass("SimEvent", [
        ("lane", str), ("kind", str), ("label", str), ("start", float),
        ("end", float), ("phase", Optional[str], None),
        ("iteration", Optional[int], None), ("device", Optional[int], None),
        *((f.name, f.type, f.default) for f in fields(Metrics)
          if f.name in COUNTER_FIELDS),
        ("extra", Tuple[Tuple[str, Any], ...], ())], frozen=True)):
    """One row of a log: its lane (``""`` for an instant marker), its
    context, one field per counter it adds to ``Metrics`` and its ``extra``
    pairs."""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return not self.lane

    @property
    def lane_key(self) -> str:
        """The lane its time counts under: ``<lane>@<device>`` on a fabric."""
        return (self.lane if self.device is None
                else f"{self.lane}@{self.device}")


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


# ------------------------------------------------------------------- folds
def fold_metrics(events: Iterable[SimEvent]) -> Metrics:
    """Each counter is the sum of the rows' values, and each phase's seconds
    the sum of its rows' positive widths, both added in row order."""
    metrics = Metrics()
    for e in events:
        for name in COUNTER_FIELDS:
            setattr(metrics, name, getattr(metrics, name) + getattr(e, name))
        if e.phase is not None and e.end > e.start:
            metrics.phase_seconds[e.phase] += e.end - e.start
    return metrics


def fold_lane_stats(events: Iterable[SimEvent]) -> Dict[str, LaneStats]:
    """Per lane key: its rows' widths summed in row order, and their count."""
    stats: Dict[str, LaneStats] = {}
    for e in events:
        if e.lane:
            st = stats.setdefault(e.lane_key, LaneStats())
            st.busy_seconds += e.end - e.start
            st.n_ops += 1
    return stats


def fold_spans(events: Iterable[SimEvent]) -> List[Span]:
    """One span per lane row of positive width, in row order."""
    return [Span(e.lane_key, e.label, e.start, e.end)
            for e in events if e.lane and e.end > e.start]


def fold_device_faults(events: Iterable[SimEvent]
                       ) -> Dict[Optional[int], Dict[str, int]]:
    """Per device, the count of each fault or recovery kind's rows, keyed
    ``fault_<kind>`` with ``-`` spelt ``_``."""
    out: Dict[Optional[int], Counter] = {}
    for e in events:
        if e.kind in FAULT_KINDS | DEVICE_FAULT_KINDS:
            out.setdefault(e.device, Counter())[
                "fault_" + e.kind.replace("-", "_")] += 1
    return {d: dict(counts) for d, counts in out.items()}


def idle_breakdown(events: Iterable[SimEvent], lane: str,
                   horizon: float) -> IdleBreakdown:
    """A lane's ``[0, horizon]`` split into lead, stall, busy and tail.

    The lane's spans of positive width are taken in start order and every
    time is clipped to the horizon.  Lead runs to the first start; busy is
    the sum of the spans; a stall is a gap between a start and the latest
    end before it; tail runs from the latest end on.  Retry is the clipped
    width of the lane's fault-kind spans, summed in row order.
    """
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    mine = [e for e in events
            if e.lane and e.lane_key == lane and e.end > e.start]

    def clipped(start: float, end: float) -> float:
        return min(end, horizon) - min(start, horizon)

    retry = sum(clipped(e.start, e.end) for e in mine
                if e.kind in FAULT_KINDS)
    spans = sorted((e.start, e.end) for e in mine)
    if not spans:
        return IdleBreakdown(lead=horizon, stall=0.0, tail=0.0, busy=0.0,
                             horizon=horizon)
    busy = stall = 0.0
    reach = spans[0][0]  # the latest end so far
    for start, end in spans:
        if start > reach:
            stall += clipped(reach, start)
        busy += clipped(start, end)
        reach = max(reach, end)
    return IdleBreakdown(lead=min(spans[0][0], horizon), stall=stall,
                         tail=max(horizon - reach, 0.0), busy=busy,
                         horizon=horizon, retry=retry)


def first_offence(events: Iterable[SimEvent], horizon: Optional[float] = None
                  ) -> Optional[Tuple[int, str]]:
    """``(row number, reason)`` of the first row ``validate_log`` rejects,
    ``None`` for a log it accepts.

    A row is rejected for, checked in this order: a bad interval (it starts
    before 0 or ends before it starts), an end past the horizon, width on
    a lane-less row, or a start before the end of its lane's previous row.
    """
    last_end: Dict[str, float] = {}
    for i, e in enumerate(events):
        if e.start < 0 or e.end < e.start:
            return i, "bad interval"
        if horizon is not None and e.end > horizon:
            return i, "beyond horizon"
        if not e.lane and e.end != e.start:
            return i, "lane-less event has width"
        if e.lane:
            if e.start < last_end.get(e.lane_key, -math.inf):
                return i, "self-overlaps"
            last_end[e.lane_key] = e.end
    return None


# ------------------------------------------------------ Chrome-trace export
def check_chrome_trace(events: List[SimEvent],
                       out: List[Dict[str, Any]]) -> None:
    """Assert that ``out`` is the Chrome-trace export of ``events``.

    * Processes: with no device anywhere, ``repro-sim`` at pid 0;
      otherwise ``repro-sim:dev<d>`` at pid ``d`` per device and
      ``repro-fabric`` one pid above the highest for the device-less
      rows.  Each opens by naming its threads: every ``LANE_TIDS`` lane
      (not on ``repro-fabric``), then ``markers`` on ``MARKER_TID``.
    * Then one record per row, in row order: an ``X`` per lane row (``ts``
      its start, ``dur`` its width, both × 1e6), an ``i`` per lane-less
      row on ``MARKER_TID``; its pid is its device's process.
    * A lane its process does not name is named just before its first
      ``X``, taking ``MARKER_TID + 1, + 2, …`` in first-seen order.
    * On a fabric log each fault or recovery row is preceded by a ``C``
      record ``faults``: the process's running count of each
      ``fault_<kind>``, keys sorted.
    """
    devices = sorted({e.device for e in events if e.device is not None})
    spare = devices[-1] + 1 if devices else 0
    procs = ([(d, f"repro-sim:dev{d}", LANE_TIDS) for d in devices]
             + [(spare, "repro-fabric", {})]
             if devices else [(0, "repro-sim", LANE_TIDS)])

    def named(pid: int, tid: int, name: str, what: str = "thread_name"):
        return {"name": what, "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name}}

    head = []
    for pid, name, lanes in procs:
        head += [named(pid, 0, name, "process_name"),
                 *(named(pid, tid, lane) for lane, tid in lanes.items()),
                 named(pid, MARKER_TID, "markers")]
    assert out[:len(head)] == head
    records = iter(out[len(head):])
    tids = {pid: dict(lanes) for pid, _, lanes in procs}
    faults: Dict[int, Counter] = {}
    for e in events:
        pid = spare if e.device is None else e.device
        if devices and e.kind in FAULT_KINDS | DEVICE_FAULT_KINDS:
            counts = faults.setdefault(pid, Counter())
            counts["fault_" + e.kind.replace("-", "_")] += 1
            record = next(records, None)
            assert record == {"name": "faults", "ph": "C",
                              "ts": e.start * 1e6, "pid": pid,
                              "args": dict(counts)}
            assert list(record["args"]) == sorted(counts)
        if e.lane and e.lane not in tids[pid]:  # the next tid past markers
            tids[pid][e.lane] = max([MARKER_TID, *tids[pid].values()]) + 1
            assert next(records, None) == named(pid, tids[pid][e.lane],
                                                e.lane)
        args = {"kind": e.kind}
        args.update((key, value) for key, value
                    in (("phase", e.phase), ("iteration", e.iteration))
                    if value is not None)
        args.update((name, getattr(e, name)) for name in COUNTER_FIELDS
                    if getattr(e, name))
        args.update(e.extra)
        common = {"name": e.label or e.kind, "ts": e.start * 1e6,
                  "pid": pid, "args": args}
        if e.lane:
            cat = e.kind if e.kind in FAULT_KINDS else e.phase or e.kind
            want = {**common, "ph": "X", "dur": (e.end - e.start) * 1e6,
                    "tid": tids[pid][e.lane], "cat": cat}
        else:
            want = {**common, "ph": "i", "s": "t", "tid": MARKER_TID,
                    "cat": e.kind}
        assert next(records, None) == want
    assert next(records, None) is None


# ------------------------------------------------------- serving-layer folds
def nearest_rank(samples: Iterable[float]) -> Dict[str, float]:
    """p50/p95/p99 by nearest rank (the ``ceil(p·n)``-th smallest), the mean
    of the sorted sample, and its max; all 0.0 for no sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return dict.fromkeys(("p50", "p95", "p99", "mean", "max"), 0.0)

    def rank(p: float) -> float:
        return ordered[max(math.ceil(p * n), 1) - 1]

    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99),
            "mean": sum(ordered) / n, "max": ordered[-1]}


def _sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + …`` in the given order."""
    total = 0.0
    for value in values:
        total += value
    return total


def fold_slo(events: List[SimEvent],
             horizon: Optional[float] = None) -> Dict[str, Any]:
    """The SLO report of a serving log.

    A request's arrive, start, complete and shed markers carry its id; the
    last of each kind wins.  The horizon defaults to the latest end of any
    row but the device-fault markers.  A request is served when it
    completed and both its arrive and start are in the log.  Its e2e time
    runs from arrive to complete, its queue time from arrive to start and
    its service time from start to complete.  It met its deadline when it
    has none (``-1``) or completed by it.  Tenants are the label prefixes
    of the arrivals, and their seconds are summed in request-id order.
    """
    def of(kind: str) -> List[SimEvent]:
        return [e for e in events if e.kind == kind]

    def rid(e: SimEvent) -> int:
        return int(dict(e.extra)["request"])

    arrive = {rid(e): e for e in of("request-arrive")}
    began = {rid(e): e.start for e in of("request-start")}
    done = {rid(e): e.end for e in of("request-complete")}
    shed = {rid(e) for e in of("request-shed")}
    if horizon is None:
        horizon = max([0.0] + [e.end for e in events
                               if e.kind not in _DEGRADED_KINDS])

    def on_time(r: int) -> bool:
        deadline = dict(arrive[r].extra).get("deadline", -1.0)
        return deadline < 0 or done[r] <= deadline

    served = [r for r in sorted(done) if r in arrive and r in began]
    met = [r for r in served if on_time(r)]
    e2e = {r: done[r] - arrive[r].start for r in served}
    service = {r: done[r] - began[r] for r in served}
    tenant = {r: e.label.split("/", 2)[0] for r, e in arrive.items()}
    tenants = {}
    for name in sorted(set(tenant.values())):
        mine = [r for r in served if tenant[r] == name]
        tenants[name] = {
            "arrived": sum(t == name for t in tenant.values()),
            "shed": sum(tenant.get(r) == name for r in shed),
            "completed": len(mine),
            "e2e_seconds": _sum(e2e[r] for r in mine),
            "service_seconds": _sum(service[r] for r in mine),
        }

    out = {
        "schema": SLO_SCHEMA,
        "horizon_seconds": horizon,
        "counts": {"arrived": len(arrive),
                   "admitted": len(of("request-admit")),
                   "shed": len(shed), "completed": len(done),
                   "deadline_met": len(met)},
        "latency_seconds": {
            "e2e": nearest_rank(e2e.values()),
            "queue": nearest_rank(began[r] - arrive[r].start for r in served),
            "service": nearest_rank(service.values()),
        },
        "throughput_per_second": len(done) / horizon if horizon > 0 else 0.0,
        "goodput_per_second": len(met) / horizon if horizon > 0 else 0.0,
        "shed_rate": len(shed) / len(arrive) if arrive else 0.0,
        "warm": {"hits": len(of("warm-hit")), "misses": len(of("warm-miss"))},
        "tenants": tenants,
        "fleet": fold_fleet([dict(e.extra) for e in of("dispatch")], horizon),
    }
    markers = [e for e in events
               if e.kind in _DEGRADED_KINDS and e.start <= horizon]
    if markers:
        out["degraded"] = fold_degraded(
            markers, [done[r] for r in sorted(done)
                      if r in arrive and on_time(r)], horizon)
    return out


def fold_fleet(dispatches: List[Dict[str, Any]],
               horizon: float) -> Dict[str, Any]:
    """Per-device ledger of ``dispatch`` markers' extras, in row order.

    A dispatch on device ``d >= 0`` adds one dispatch, its requests and its
    service seconds to ``d``.  A fabric-wide one (``d < 0``) adds all of
    that and its exchange bytes to the ``fabric`` ledger, and its service
    seconds and an equal share of its bytes to each of its ``devices``.
    """
    ledger = defaultdict(lambda: {"dispatches": 0, "requests": 0,
                                  "busy_seconds": 0.0, "exchange_bytes": 0.0})
    for x in dispatches:
        dev = int(x.get("device", 0))
        n_dev = max(int(x.get("devices", 1)), 1)
        service = float(x.get("service", 0.0))
        xbytes = float(x.get("exchange_bytes", 0.0))
        shares = [(d, 0, 0, xbytes / n_dev) for d in range(n_dev)] \
            if dev < 0 else []
        own = (dev, 1, int(x.get("requests", 1)), xbytes if dev < 0 else 0.0)
        for d, n, requests, nbytes in shares + [own]:
            b = ledger[d]
            b["dispatches"] += n
            b["requests"] += requests
            b["busy_seconds"] += service
            b["exchange_bytes"] += nbytes
    for b in ledger.values():
        b["utilization"] = b["busy_seconds"] / horizon if horizon > 0 else 0.0
    return {
        "devices": {("fabric" if d < 0 else str(d)): ledger[d]
                    for d in sorted(ledger)},
        "n_dispatches": len(dispatches),
        "sharded_dispatches": sum(int(x.get("device", 0)) < 0
                                  for x in dispatches),
        "exchange_bytes": _sum(float(x.get("exchange_bytes", 0.0))
                               for x in dispatches),
    }


def fold_degraded(markers: List[SimEvent], met: List[float],
                  horizon: float) -> Dict[str, Any]:
    """The failure ledger of the device-fault markers inside the horizon.

    A marker's device is its row's, else its ``device`` extra.  An outage
    runs from a ``device-down`` to that device's next ``device-up`` (or to
    the horizon); a down while down and an up while up are no-ops.  Each
    device's downtime sums its outages, closed ones in row order first.
    The degraded seconds measure the union of all outages, and goodput
    under failure counts the completions ``met`` (the times of the arrived,
    deadline-met ones) inside it.
    """
    def dev(e: SimEvent) -> int:
        return e.device if e.device is not None \
            else int(dict(e.extra).get("device", -1))

    ledger = defaultdict(lambda: {"downtime_seconds": 0.0, "outages": 0,
                                  "dispatch_failures": 0, "breaker_opens": 0})
    down_since: Dict[int, float] = {}
    outages = []
    for e in markers:
        if e.kind == "device-down":
            down_since.setdefault(dev(e), e.start)
        elif e.kind == "device-up" and dev(e) in down_since:
            outages.append((down_since.pop(dev(e)), e.start, dev(e)))
        elif e.kind == "device-fail":
            ledger[dev(e)]["dispatch_failures"] += 1
        elif e.kind == "breaker-open":
            ledger[dev(e)]["breaker_opens"] += 1
    outages += [(t0, max(horizon, t0), d)
                for d, t0 in sorted(down_since.items())]
    for t0, t1, d in outages:
        ledger[d]["downtime_seconds"] += t1 - t0
        ledger[d]["outages"] += 1
    union: List[List[float]] = []
    for t0, t1, _ in sorted(outages):
        if union and t0 <= union[-1][1]:
            union[-1][1] = max(union[-1][1], t1)
        else:
            union.append([t0, t1])
    degraded = sum(t1 - t0 for t0, t1 in union)  # 0, an int, for none
    retries = [int(dict(e.extra).get("request", -1)) for e in markers
               if e.kind == "request-retry"]
    during = [t for t in met if any(t0 <= t <= t1 for t0, t1 in union)]
    return {
        "devices": {str(d): ledger[d] for d in sorted(ledger)},
        "degraded_seconds": degraded,
        "retried_requests": len(retries),
        "relocated_requests": len(set(retries)),
        "breaker_closes": sum(e.kind == "breaker-close" for e in markers),
        "goodput_under_failure": (len(during) / degraded if degraded > 0
                                  else 0.0),
    }


def fold_exchange_bytes(events: Iterable[SimEvent]) -> Dict[int, int]:
    """Per sending device, in first-seen order: the ``bytes`` extras of its
    ``d2d`` rows, each truncated to an int, summed."""
    out: Dict[int, int] = {}
    for e in events:
        if e.kind == "d2d" and e.device is not None:
            out[e.device] = out.get(e.device, 0) + int(
                dict(e.extra).get("bytes", 0.0))
    return out
