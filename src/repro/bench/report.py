"""Schema-versioned bench reports and the regression comparator.

A report is a JSON document (``BENCH_<rev>.json`` by default, ``<rev>``
being the :func:`repro.runner.code_version` content hash) carrying the
timings plus enough environment fingerprint to judge comparability
(cross-machine comparisons carry the machine's own speed difference; see
``docs/performance.md`` for what CI's gate does about it).

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "revision": "<code_version hash>",
      "environment": {"python": ..., "numpy": ..., "platform": ...,
                      "cpu_count": ..., "quick": ..., "argv": ...},
      "benchmarks": {
        "<name>": {"kind": ..., "description": ..., "best_seconds": ...,
                   "mean_seconds": ..., "repeats": ...,
                   "units": {"edges": ...}, "throughput": {...}}
      }
    }

The comparator keys on ``best_seconds`` and flags any benchmark whose
fractional slowdown exceeds the threshold.  Benchmarks present on only one
side are reported but never fail the comparison — adding or retiring a
benchmark must not break CI.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "Comparison",
    "Delta",
    "compare_reports",
    "default_report_name",
    "load_report",
    "make_report",
    "write_report",
]

SCHEMA_VERSION = 1

#: Default acceptable fractional slowdown for same-machine comparisons.
DEFAULT_THRESHOLD = 0.25


def _environment(quick: bool) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "quick": bool(quick),
        "argv": list(sys.argv),
    }


def make_report(results: Dict[str, dict], quick: bool = False) -> dict:
    """Wrap ``run_benchmarks`` output into a schema-versioned document."""
    from repro.runner import code_version

    return {
        "schema_version": SCHEMA_VERSION,
        "revision": code_version(),
        "environment": _environment(quick),
        "benchmarks": results,
    }


def default_report_name(report: dict) -> str:
    """Canonical ``BENCH_<rev>.json`` filename for a report."""
    return f"BENCH_{report['revision']}.json"


def write_report(path: str, report: dict) -> str:
    """Write a report as stable (sorted, indented) JSON; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> dict:
    """Read and schema-check a ``BENCH_*.json`` report."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if "benchmarks" not in report:
        raise ValueError(f"{path}: malformed bench report (no 'benchmarks')")
    return report


@dataclass(frozen=True)
class Delta:
    """One benchmark's old-vs-new timing."""

    name: str
    old_seconds: float
    new_seconds: float

    @property
    def ratio(self) -> float:
        """new/old; > 1 is slower."""
        if self.old_seconds <= 0:
            return float("inf") if self.new_seconds > 0 else 1.0
        return self.new_seconds / self.old_seconds


@dataclass
class Comparison:
    """The comparator's verdict over two reports."""

    threshold: float
    deltas: List[Delta] = field(default_factory=list)
    regressions: List[Delta] = field(default_factory=list)
    only_old: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_reports(
    old: dict, new: dict, threshold: Optional[float] = None
) -> Comparison:
    """Compare two reports; a benchmark regresses when
    ``new.best > old.best * (1 + threshold)``.
    """
    thr = DEFAULT_THRESHOLD if threshold is None else float(threshold)
    if thr < 0:
        raise ValueError("threshold must be non-negative")
    old_b, new_b = old["benchmarks"], new["benchmarks"]
    cmp = Comparison(threshold=thr)
    cmp.only_old = sorted(set(old_b) - set(new_b))
    cmp.only_new = sorted(set(new_b) - set(old_b))
    for name in sorted(set(old_b) & set(new_b)):
        delta = Delta(
            name=name,
            old_seconds=float(old_b[name]["best_seconds"]),
            new_seconds=float(new_b[name]["best_seconds"]),
        )
        cmp.deltas.append(delta)
        if delta.ratio > 1.0 + thr:
            cmp.regressions.append(delta)
    return cmp
