"""Run-result serialization.

Benchmarks and long sweeps want machine-readable records next to the
human-readable tables: :func:`result_to_dict` flattens a
:class:`~repro.engines.base.RunResult` (without the value array — that is
data, not telemetry), :func:`save_results` / :func:`load_results` round-trip
lists of them as JSON.  ``benchmarks/results/*.json`` are written through
this module.

The grid runner's persistent cache needs more: :func:`result_to_payload` /
:func:`result_from_payload` round-trip a *complete* ``RunResult`` —
including the value array (raw bytes, base64) and every per-iteration
record — **bit-exactly** (JSON floats use shortest-repr, which round-trips
IEEE-754 doubles exactly), so a replayed cell is indistinguishable from a
recomputed one.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Dict, Iterable, List, Union

import numpy as np

from repro.engines.base import IterationRecord, RunResult
from repro.gpusim.events import EventLog
from repro.gpusim.metrics import COUNTER_FIELDS, Metrics

__all__ = [
    "result_to_dict",
    "save_results",
    "load_results",
    "result_to_payload",
    "result_from_payload",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Format marker for forward compatibility.
SCHEMA_VERSION = 1

#: Format marker for the *full* (cacheable) payload form.
PAYLOAD_VERSION = 1

#: :data:`COUNTER_FIELDS` in the order payloads have always listed them:
#: the UVM four before the kernel pair.  The pin tests hash payload JSON
#: unsorted (``tests/test_region_engine_pins.py``,
#: ``tests/test_recorded_log_pins.py``), so this order is fixed just as the
#: event rows' order is.
_PAYLOAD_COUNTERS = (COUNTER_FIELDS[:6] + COUNTER_FIELDS[8:12]
                     + COUNTER_FIELDS[6:8] + COUNTER_FIELDS[12:])


def result_to_dict(result: RunResult, include_iterations: bool = False) -> Dict:
    """Flatten a run's telemetry to plain JSON-able types."""
    out: Dict = {
        "schema": SCHEMA_VERSION,
        "engine": result.engine,
        "algorithm": result.algorithm,
        "graph": result.graph_name,
        "iterations": result.iterations,
        "elapsed_seconds": result.elapsed_seconds,
        "gpu_idle_fraction": result.gpu_idle_fraction,
        "n_vertices": int(result.values.size),
        "metrics": {k: float(v) for k, v in result.metrics.as_dict().items()},
        "extra": {k: float(v) for k, v in result.extra.items()},
    }
    if include_iterations:
        out["per_iteration"] = [
            {
                "iteration": r.iteration,
                "active_vertices": r.n_active_vertices,
                "active_edges": r.n_active_edges,
                "bytes_h2d": r.bytes_h2d,
                "t_start": r.t_start,
                "t_end": r.t_end,
            }
            for r in result.per_iteration
        ]
    return out


def save_results(
    results: Iterable[RunResult], path: PathLike, include_iterations: bool = False
) -> None:
    """Write a list of runs as a JSON document."""
    payload = [result_to_dict(r, include_iterations) for r in results]
    with open(os.fspath(path), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _array_to_payload(arr: np.ndarray) -> Dict:
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii"),
    }


def _array_from_payload(payload: Dict) -> np.ndarray:
    arr = np.frombuffer(
        base64.b64decode(payload["data"]), dtype=np.dtype(payload["dtype"])
    )
    return arr.reshape(payload["shape"]).copy()


def result_to_payload(result: RunResult) -> Dict:
    """Serialize a complete run, value array included, losslessly to JSON types."""
    return {
        "payload_version": PAYLOAD_VERSION,
        "engine": result.engine,
        "algorithm": result.algorithm,
        "graph_name": result.graph_name,
        "values": _array_to_payload(result.values),
        "iterations": result.iterations,
        "elapsed_seconds": result.elapsed_seconds,
        "gpu_idle_fraction": result.gpu_idle_fraction,
        "metrics": {
            **{name: getattr(result.metrics, name) for name in _PAYLOAD_COUNTERS},
            "phase_seconds": dict(result.metrics.phase_seconds),
        },
        "per_iteration": [
            {
                "iteration": r.iteration,
                "n_active_vertices": r.n_active_vertices,
                "n_active_edges": r.n_active_edges,
                "bytes_h2d": r.bytes_h2d,
                "t_start": r.t_start,
                "t_end": r.t_end,
            }
            for r in result.per_iteration
        ],
        "extra": dict(result.extra),
        "events": (
            result.event_log.events.to_dicts()
            if result.event_log is not None
            else None
        ),
    }


def result_from_payload(payload: Dict) -> RunResult:
    """Rebuild the exact :class:`RunResult` written by :func:`result_to_payload`."""
    if payload.get("payload_version") != PAYLOAD_VERSION:
        raise ValueError(
            f"unsupported result payload version {payload.get('payload_version')!r}"
        )
    m = payload["metrics"]
    metrics = Metrics(**{name: m[name] for name in COUNTER_FIELDS})
    for phase, sec in m["phase_seconds"].items():
        metrics.phase_seconds[phase] = sec
    event_log = None
    if payload.get("events") is not None:
        # Re-emitting through a fresh recorded log rebuilds the derived
        # views (folded counters, lane stats) exactly as the live run did.
        event_log = EventLog(record=True)
        for entry in payload["events"]:
            event_log.emit_row(entry)
    return RunResult(
        engine=payload["engine"],
        algorithm=payload["algorithm"],
        graph_name=payload["graph_name"],
        values=_array_from_payload(payload["values"]),
        iterations=payload["iterations"],
        elapsed_seconds=payload["elapsed_seconds"],
        gpu_idle_fraction=payload["gpu_idle_fraction"],
        metrics=metrics,
        per_iteration=[IterationRecord(**r) for r in payload["per_iteration"]],
        extra=dict(payload["extra"]),
        event_log=event_log,
    )


def load_results(path: PathLike) -> List[Dict]:
    """Read runs written by :func:`save_results` (as dicts, not objects)."""
    with open(os.fspath(path)) as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError("result file must contain a list of runs")
    for entry in payload:
        if entry.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema {entry.get('schema')!r}"
            )
    return payload
