"""SLO metrics as a pure fold over request-lifecycle events.

The serving loop narrates every request through instant marker
events (:data:`repro.gpusim.events.REQUEST_KINDS`) on the serve clock:
``request-arrive`` (label ``tenant/graph/algo``, with the deadline in
``extra``), ``request-admit``, ``request-shed`` (label = reason),
``request-start`` (batch size + warm flag in ``extra``) and
``request-complete``; ``warm-hit`` / ``warm-miss`` record each dispatch's
pool outcome and ``dispatch`` its device and service time.
:func:`fold_slo` replays that stream into the
schema-versioned SLO report — the same replayability contract the rest of
the repo uses (metrics are folds over the event log, never separately
maintained truth).

Percentiles use the nearest-rank method on the sorted sample: no
interpolation, no float averaging of neighbors, so the report is a pure
function of the event stream and digests bit-identically across runs —
:func:`report_digest` is what the CI smoke jobs pin (of reports, load-test
traces and chaos runs alike).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from repro.gpusim.events import EventColumns, ordered_sum

__all__ = ["SLO_SCHEMA", "fold_slo", "report_digest", "canonical_json"]

#: Report schema identifier; bump on any shape change.  One id for every
#: load test: the ``fleet`` section is always present (a single server is a
#: one-device fleet), the ``degraded`` section only when a device-fault
#: marker falls inside the horizon.
SLO_SCHEMA = "repro.serve/4"

#: Device-fault marker kinds: folded into the ``degraded`` section, and
#: never allowed to stretch the default horizon.
_DEGRADED_KINDS = frozenset({
    "device-down", "device-up", "device-fail", "request-retry",
    "breaker-open", "breaker-close",
})
#: The kinds whose rows :func:`fold_slo` decodes; the admit and warm-pool
#: markers are only counted.
_READ_KINDS = frozenset({
    "request-arrive", "request-shed", "request-start", "request-complete",
    "dispatch",
}) | _DEGRADED_KINDS


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 plus mean/max over ``samples``."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    ordered = sorted(samples)
    n = len(ordered)

    def rank(p: float) -> float:
        return ordered[min(max(math.ceil(p * n), 1), n) - 1]

    return {
        "p50": rank(0.50),
        "p95": rank(0.95),
        "p99": rank(0.99),
        "mean": ordered_sum(ordered) / n,
        "max": ordered[-1],
    }


def fold_slo(events: EventColumns,
             horizon: float | None = None) -> Dict[str, Any]:
    """Fold request-lifecycle markers into the SLO report dict.

    ``horizon`` (the load test's end time) defaults to the latest event
    timestamp; goodput and throughput are completions per simulated
    second over it.  A kind-id mask picks the rows to read; only those are
    decoded, in row order.
    """
    kind = np.array(events.kind)
    kind_ids = events.kinds.ids

    def count(name: str) -> int:
        return int(np.count_nonzero(kind == kind_ids.get(name, -1)))

    # Fault-timeline markers are emitted eagerly at *plan* times, which can
    # sit far beyond the load test; they must not stretch the default
    # horizon.
    ends = np.array(events.end)[~events.kinds_in(_DEGRADED_KINDS)[kind]]
    last_t = max([0.0, *ends.tolist()])
    arrive: Dict[int, Tuple[str, float, Dict[str, Any]]] = {}
    start: Dict[int, float] = {}
    complete: Dict[int, float] = {}
    shed: Set[int] = set()
    dispatches: List[Dict[str, Any]] = []
    fault_markers: List[tuple] = []
    picked = np.flatnonzero(events.kinds_in(_READ_KINDS)[kind]).tolist()
    for ((_, device), k, label, _, _, t0, t1, _, _, xkeys,
         xvals) in events.rows(picked):
        extra = dict(zip(xkeys, xvals))
        if k == "dispatch":
            dispatches.append(extra)
            continue
        if k in _DEGRADED_KINDS:
            fault_markers.append((k, t0, device, extra))
            continue
        if "request" not in extra:
            raise ValueError(f"{k} marker without a 'request' extra")
        rid = int(extra["request"])
        if k == "request-arrive":
            arrive[rid] = (label, t0, extra)
        elif k == "request-shed":
            shed.add(rid)
        elif k == "request-start":
            start[rid] = t0
        else:
            complete[rid] = t1
    if horizon is None:
        horizon = last_t
    # A fault scheduled beyond the horizon never touched any request: the
    # report stays exactly fault-free.
    fault_markers = [m for m in fault_markers if m[1] <= horizon]

    e2e: List[float] = []
    queue: List[float] = []
    service: List[float] = []
    deadline_met = 0
    tenants: Dict[str, Dict[str, float]] = {}

    def tenant_of(arrival: tuple) -> str:
        return arrival[0].split("/", 2)[0]

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
        _, came_at, extra = came
        e2e.append(done - came_at)
        queue.append(began - came_at)
        service.append(done - began)
        deadline = extra.get("deadline", -1.0)
        if deadline < 0 or done <= deadline:
            deadline_met += 1
        bucket = tenant_bucket(tenant_of(came))
        bucket["completed"] += 1
        bucket["e2e_seconds"] += done - came_at
        bucket["service_seconds"] += done - began

    arrived = len(arrive)
    completed = len(complete)
    out = {
        "schema": SLO_SCHEMA,
        "horizon_seconds": horizon,
        "counts": {
            "arrived": arrived,
            "admitted": count("request-admit"),
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
        "warm": {"hits": count("warm-hit"), "misses": count("warm-miss")},
        "tenants": {name: tenants[name] for name in sorted(tenants)},
        "fleet": _fold_fleet(dispatches, horizon),
    }
    if fault_markers:
        out["degraded"] = _fold_degraded(fault_markers, arrive, complete,
                                         horizon)
    return out


def _fold_degraded(markers: List[tuple], arrive: Dict[int, tuple],
                   complete: Dict[int, float],
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
    for kind, t, device, extra in markers:
        dev = device if device is not None else int(extra.get("device", -1))
        if kind == "device-down":
            open_at.setdefault(dev, t)
        elif kind == "device-up":
            t0 = open_at.pop(dev, None)
            if t0 is not None:
                windows.append((t0, t, dev))
        elif kind == "device-fail":
            bucket(dev)["dispatch_failures"] += 1
        elif kind == "breaker-open":
            bucket(dev)["breaker_opens"] += 1
        elif kind == "breaker-close":
            breaker_closes += 1
        elif kind == "request-retry":
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
    degraded_seconds = ordered_sum(t1 - t0 for t0, t1 in merged)
    met_during = 0
    for rid, done in sorted(complete.items()):
        came = arrive.get(rid)
        if came is None:
            continue
        deadline = came[2].get("deadline", -1.0)
        if deadline >= 0 and done > deadline:
            continue
        if any(t0 <= done <= t1 for t0, t1 in merged):
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


def _fold_fleet(dispatches: List[Dict[str, Any]],
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
    for extra in dispatches:
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


def canonical_json(payload: Any) -> str:
    """The canonical serialization every digest is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def report_digest(payload: Any) -> str:
    """Short stable digest of a JSON-able payload: an SLO report, a load
    test's trace, a chaos run's result (what the CI smoke jobs pin)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]
