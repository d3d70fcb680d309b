"""Access traces (Fig. 2) and Chrome/Perfetto timeline export.

The paper acquires edge-access traces with nvprof while edges live in UVM,
then plots (time, chunk-id) scatter per iteration and per-chunk access
counts.  Here the simulated UVM *is* the memory system, so the
:class:`~repro.engines.uvm_engine.UVMEngine` reports every page touch to an
:class:`AccessTrace`; :class:`TraceSummary` condenses the trace into the
paper's two panels plus the quantities its prose claims:

* *near-sequential scan*: within an iteration the touched chunks sweep the
  id space in order (sequentiality ≈ 1);
* *flat access counts*: every chunk is touched about equally often over the
  run (low coefficient of variation, "no noticeable hot spot");
* *sparse iterations*: only a fraction of chunks per iteration.

The second half of this module exports a recorded
:class:`~repro.gpusim.events.EventLog` as Chrome-trace JSON
(:func:`to_chrome_trace` / :func:`save_chrome_trace`, surfaced as the
``repro trace`` CLI subcommand), loadable in Perfetto (ui.perfetto.dev) or
``chrome://tracing``.  Each lane becomes one timeline row, so the paper's
Fig. 5 overlap story — Subway's sequential staircase versus Ascetic's
concurrently busy gpu/copy/cpu rows — is directly visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

import numpy as np

from repro.engines.base import RunResult
from repro.graph.csr import CSRGraph
from repro.gpusim.device import GPUSpec
from repro.gpusim.events import (
    DEVICE_FAULT_KINDS,
    FAULT_KINDS,
    EventColumns,
    EventLog,
)

__all__ = [
    "AccessTrace",
    "TraceSummary",
    "trace_uvm_run",
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
]


@dataclass
class AccessTrace:
    """Recorded (virtual time, chunk ids) events, one record per iteration."""

    times: List[float] = field(default_factory=list)
    chunk_sets: List[np.ndarray] = field(default_factory=list)

    def record(self, t: float, chunk_ids: np.ndarray) -> None:
        self.times.append(float(t))
        self.chunk_sets.append(np.asarray(chunk_ids, dtype=np.int64).copy())

    @property
    def n_iterations(self) -> int:
        return len(self.times)

    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """Flatten to parallel (time, chunk) arrays — Fig. 2's scatter."""
        if not self.times:
            return np.empty(0), np.empty(0, dtype=np.int64)
        times = np.concatenate(
            [np.full(c.size, t) for t, c in zip(self.times, self.chunk_sets)]
        )
        chunks = np.concatenate(self.chunk_sets) if self.chunk_sets else np.empty(0, np.int64)
        return times, chunks

    def access_counts(self, n_chunks: int) -> np.ndarray:
        """Per-chunk total access counts — Fig. 2's bottom panels."""
        counts = np.zeros(n_chunks, dtype=np.int64)
        for c in self.chunk_sets:
            counts[c] += 1
        return counts

    def summarize(self, n_chunks: int) -> "TraceSummary":
        per_iter_frac = [c.size / max(n_chunks, 1) for c in self.chunk_sets]
        seqs = []
        for c in self.chunk_sets:
            if c.size >= 2:
                # UVM touches arrive in ascending page order within an
                # iteration batch; sequentiality = fraction of unit-or-small
                # forward steps relative to the chunk spread.
                d = np.diff(np.sort(c))
                seqs.append(float(np.mean(d <= 2)))
        counts = self.access_counts(n_chunks)
        touched = counts[counts > 0]
        cv = float(np.std(touched) / np.mean(touched)) if touched.size else 0.0
        return TraceSummary(
            n_iterations=self.n_iterations,
            n_chunks=n_chunks,
            mean_fraction_per_iteration=float(np.mean(per_iter_frac)) if per_iter_frac else 0.0,
            sequentiality=float(np.mean(seqs)) if seqs else 1.0,
            count_cv=cv,
            touched_fraction=float(np.mean(counts > 0)),
        )


@dataclass(frozen=True)
class TraceSummary:
    """Condensed Fig. 2 claims, assertable by tests and printed by benches."""

    n_iterations: int
    n_chunks: int
    #: Mean fraction of chunks touched per iteration (sparsity claim).
    mean_fraction_per_iteration: float
    #: Fraction of near-unit forward steps in the per-iteration chunk sweep
    #: (≈ 1 means a sequential scan).
    sequentiality: float
    #: Coefficient of variation of per-chunk access counts (≈ 0 means flat,
    #: "no noticeable hot spot").
    count_cv: float
    #: Fraction of chunks ever touched.
    touched_fraction: float


def trace_uvm_run(
    graph: CSRGraph,
    program,
    spec: GPUSpec,
    data_scale: float = 1.0,
) -> tuple[AccessTrace, TraceSummary, "RunResult"]:
    """Run ``program`` under the UVM engine with tracing on (Fig. 2 setup).

    Mirrors the paper's §2 experiment: "we keep all vertices in GPU memory
    and edges in UVM, and acquire the edge-access traces".
    """
    from repro.engines.base import RunResult  # noqa: F401  (doc type)
    from repro.engines.uvm_engine import UVMEngine

    engine = UVMEngine(spec=spec, data_scale=data_scale, pin_fraction=0.0)
    trace = AccessTrace()
    engine.trace = trace
    result = engine.run(graph, program)
    n_chunks = engine._uvm.n_pages
    return trace, trace.summarize(n_chunks), result


# --------------------------------------------------------------------------
# Chrome/Perfetto trace export
# --------------------------------------------------------------------------

#: One Chrome-trace thread row per lane, in schedule order.
LANE_TIDS = {"gpu": 0, "copy": 1, "cpu": 2}
#: Instant (lane-less) markers — UVM faults, pins — get their own row.
MARKER_TID = 3

TraceSource = Union[EventLog, RunResult, EventColumns]


def _source_columns(source: TraceSource) -> EventColumns:
    if isinstance(source, RunResult):
        if source.event_log is None:
            raise ValueError(
                "RunResult carries no event log — run the engine with "
                "record_events=True (engine opt / RunSpec engine_opts)"
            )
        return source.event_log.events
    if isinstance(source, EventLog):
        if not source.record:
            raise ValueError(
                "EventLog ran in lean mode; construct with record=True "
                "(engine record_events=True) to export a trace"
            )
        return source.events
    return source


def _trace_rows(cols: EventColumns) -> Iterator[tuple]:
    """Per row: ``(lane, device, kind, name, phase, ts, dur, args)``.

    ``args`` is the per-slice payload shared by both export modes: kind,
    phase and iteration, then the non-zero counters, then ``extra``.
    """
    for ((lane, device), kind, label, phase, iteration, start, end,
         cnames, cvals, xkeys, xvals) in cols.rows():
        args: Dict[str, Any] = {"kind": kind}
        if phase is not None:
            args["phase"] = phase
        if iteration is not None:
            args["iteration"] = iteration
        if cnames:
            args.update(zip(cnames, cvals))
        if xkeys:
            args.update(zip(xkeys, xvals))
        yield (lane, device, kind, label or kind, phase, start * 1e6,
               (end - start) * 1e6, args)


def chrome_trace_events(source: TraceSource) -> List[Dict[str, Any]]:
    """Flatten events to the Chrome-trace ``traceEvents`` list.

    Lane-occupying events become complete slices (``ph="X"`` with ``ts`` /
    ``dur`` in microseconds); lane-less markers become instants
    (``ph="i"``).  Metadata records name the process and one thread per
    lane so Perfetto renders labelled rows.

    A single-device log (no event carries a ``device``) exports exactly as
    it always has — one ``repro-sim`` process, pid 0, byte-identical output.
    A fabric log gets one named process per device (``pid`` = device id,
    ``repro-sim:dev<d>``) plus a shared ``repro-fabric`` process for
    device-less markers (the serve layer's request lifecycle), so Perfetto
    renders the fleet as parallel process groups.  Fault and recovery
    events on a fabric log additionally drive a per-device ``faults``
    counter track (``ph="C"``), one running count per fault kind, so chaos
    activity is visible at a glance in each device's process group.
    """
    cols = _source_columns(source)
    devices = sorted({d for _, d in cols.whos.values if d is not None})
    if devices:
        return _multi_device_trace_events(cols, devices)
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
    for lane, _, kind, name, phase, ts, dur, args in _trace_rows(cols):
        if not lane:
            out.append({
                "name": name, "ph": "i", "s": "t",
                "ts": ts, "pid": 0, "tid": MARKER_TID,
                "cat": kind, "args": args,
            })
            continue
        tid = tids.get(lane)
        if tid is None:  # an engine invented a lane: give it its own row
            tid = tids[lane] = next_tid
            next_tid += 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": lane},
            })
        out.append({
            "name": name, "ph": "X",
            "ts": ts, "dur": dur,
            "pid": 0, "tid": tid,
            # Fault/retry slices keep their own category even inside a
            # phase, so Perfetto can colour and filter chaos activity.
            "cat": kind if kind in FAULT_KINDS else (phase or kind),
            "args": args,
        })
    return out


def _multi_device_trace_events(cols: EventColumns,
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
    for lane, device, kind, name, phase, ts, dur, args in _trace_rows(cols):
        pid = device if device is not None else fabric_pid
        if kind in FAULT_KINDS or kind in DEVICE_FAULT_KINDS:
            # Running per-device fault counters, one Chrome counter track
            # per process: fold_device_faults as a timeline.
            counts = fault_counts.setdefault(pid, {})
            key = "fault_" + kind.replace("-", "_")
            counts[key] = counts.get(key, 0) + 1
            out.append({
                "name": "faults", "ph": "C", "ts": ts,
                "pid": pid, "args": dict(sorted(counts.items())),
            })
        if not lane:
            out.append({
                "name": name, "ph": "i", "s": "t",
                "ts": ts, "pid": pid, "tid": MARKER_TID,
                "cat": kind, "args": args,
            })
            continue
        lane_tids = tids.setdefault(pid, {})
        tid = lane_tids.get(lane)
        if tid is None:
            tid = lane_tids[lane] = next_tid.get(pid, MARKER_TID + 1)
            next_tid[pid] = tid + 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": lane},
            })
        out.append({
            "name": name, "ph": "X",
            "ts": ts, "dur": dur,
            "pid": pid, "tid": tid,
            "cat": kind if kind in FAULT_KINDS else (phase or kind),
            "args": args,
        })
    return out


def to_chrome_trace(source: TraceSource) -> Dict[str, Any]:
    """The full Chrome-trace JSON object for a recorded run.

    Accepts a :class:`~repro.engines.base.RunResult` (with an attached
    event log), a recorded :class:`~repro.gpusim.events.EventLog`, or a
    raw event iterable.
    """
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(source),
        "displayTimeUnit": "ms",
    }
    if isinstance(source, RunResult):
        doc["otherData"] = {
            "engine": source.engine,
            "algorithm": source.algorithm,
            "graph": source.graph_name,
            "iterations": source.iterations,
            "elapsed_seconds": source.elapsed_seconds,
        }
    return doc


def save_chrome_trace(path: "str | Path", source: TraceSource) -> Path:
    """Write the Chrome-trace JSON for ``source`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(source)))
    return path
