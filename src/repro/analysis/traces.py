"""Access traces (Fig. 2) and Chrome/Perfetto timeline export.

The paper acquires edge-access traces with nvprof while edges live in UVM,
then plots (time, chunk-id) scatter per iteration and per-chunk access
counts.  Here the simulated UVM *is* the memory system: a recorded
:class:`~repro.engines.uvm_engine.UVMEngine` run logs each superstep's
touched pages as ``access-path`` markers, :func:`fold_access_trace` folds
them into an :class:`AccessTrace`, and :class:`TraceSummary` condenses the
trace into the paper's two panels plus the quantities its prose claims:

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
from typing import Any, Dict, List, Union

import numpy as np

from repro.engines.base import RunResult
from repro.gpusim.events import (
    DEVICE_FAULT_KINDS,
    FAULT_KINDS,
    EventColumns,
    EventLog,
)
from repro.graph.csr import CSRGraph

__all__ = [
    "AccessTrace",
    "TraceSummary",
    "fold_access_trace",
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
]


@dataclass
class AccessTrace:
    """(virtual time, chunk ids) per iteration, in iteration order."""

    times: List[float] = field(default_factory=list)
    chunk_sets: List[np.ndarray] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.times)

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


def fold_access_trace(result: RunResult, graph: CSRGraph
                      ) -> tuple[AccessTrace, TraceSummary]:
    """Fold the access trace of a recorded UVM run of ``graph``.

    The paper's §2 experiment — "we keep all vertices in GPU memory and
    edges in UVM, and acquire the edge-access traces" — is a UVM run with
    ``pin_fraction=0.0`` and ``record_events=True``.  Each iteration's entry
    is its start time and the pages of its ``access-path`` runs (none when
    it touched no page); the chunk count is the edge array's page count.
    """
    cols = result.event_log.events
    run_key = cols.keysets.ids.get(("page_lo", "page_hi", "n"), -1)
    pages: Dict[int, List[np.ndarray]] = {}
    for i in np.flatnonzero(np.array(cols.xkey) == run_key).tolist():
        lo, hi, _ = cols.xval[i]
        pages.setdefault(cols.iteration[i], []).append(
            np.arange(int(lo), int(hi) + 1, dtype=np.int64))
    records, none = result.per_iteration, [np.empty(0, dtype=np.int64)]
    trace = AccessTrace(
        times=[r.t_start for r in records],
        chunk_sets=[np.concatenate(pages.get(r.iteration, none))
                    for r in records],
    )
    n_chunks = -(-graph.edge_array_bytes // int(result.extra["page_size"]))
    return trace, trace.summarize(n_chunks)


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


def chrome_trace_events(source: TraceSource) -> List[Dict[str, Any]]:
    """Flatten events to the Chrome-trace ``traceEvents`` list.

    Lane-occupying events become complete slices (``ph="X"`` with ``ts`` /
    ``dur`` in microseconds); lane-less markers become instants
    (``ph="i"``).  Metadata records name each process and one thread per
    lane so Perfetto renders labelled rows; a lane outside
    :data:`LANE_TIDS` (an engine invented it) gets the next free thread id
    of its process.

    Whether any row carries a ``device`` decides the process layout:

    * none (one device): one ``repro-sim`` process, pid 0;
    * some (a fabric log): one ``repro-sim:dev<d>`` process per device
      (``pid`` = device id), plus a ``repro-fabric`` process one pid above
      the highest device for device-less rows (the serve layer's request
      lifecycle), which starts with only a markers row.  Fault and recovery
      events additionally drive a per-process ``faults`` counter track
      (``ph="C"``), one running count per fault kind, so chaos activity is
      visible at a glance in each device's process group.
    """
    cols = _source_columns(source)
    devices = sorted({d for _, d in cols.whos.values if d is not None})
    spare = max(devices) + 1 if devices else 0  # the pid of device-less rows
    procs = ([(d, f"repro-sim:dev{d}", LANE_TIDS) for d in devices]
             + [(spare, "repro-fabric", {})]
             if devices else [(0, "repro-sim", LANE_TIDS)])
    out: List[Dict[str, Any]] = []

    def thread(pid: int, tid: int, name: str) -> None:
        out.append({"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": name}})

    tids: Dict[int, Dict[str, int]] = {}
    for pid, name, lanes in procs:
        out.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": name}})
        for lane, tid in lanes.items():
            thread(pid, tid, lane)
        thread(pid, MARKER_TID, "markers")
        tids[pid] = dict(lanes)
    next_tid = dict.fromkeys(tids, MARKER_TID + 1)
    fault_counts: Dict[int, Dict[str, int]] = {}
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
        name, ts = label or kind, start * 1e6
        pid = spare if device is None else device
        if devices and (kind in FAULT_KINDS or kind in DEVICE_FAULT_KINDS):
            # Running per-device fault counters, one Chrome counter track
            # per process: fold_device_faults as a timeline.
            counts = fault_counts.setdefault(pid, {})
            key = "fault_" + kind.replace("-", "_")
            counts[key] = counts.get(key, 0) + 1
            out.append({"name": "faults", "ph": "C", "ts": ts, "pid": pid,
                        "args": dict(sorted(counts.items()))})
        if not lane:
            out.append({"name": name, "ph": "i", "s": "t", "ts": ts,
                        "pid": pid, "tid": MARKER_TID, "cat": kind,
                        "args": args})
            continue
        tid = tids[pid].get(lane)
        if tid is None:
            tid = tids[pid][lane] = next_tid[pid]
            next_tid[pid] += 1
            thread(pid, tid, lane)
        out.append({
            "name": name, "ph": "X", "ts": ts, "dur": (end - start) * 1e6,
            "pid": pid, "tid": tid,
            # Fault/retry slices keep their own category even inside a
            # phase, so Perfetto can colour and filter chaos activity.
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
