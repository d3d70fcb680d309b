"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper.  A
module that runs engines declares its runs as a module-level ``RUNS`` list
of :class:`~repro.runner.RunSpec`.  The ``cells`` fixture collects the union
of the selected modules' lists once per session and runs it through one
:func:`repro.runner.run_grid` call, so every figure cell is cached, fans out
over ``--jobs`` and runs once however many figures read it.  A module folds
its results by spec; the ``grid`` fixture is the view of the 4-datasets ×
4-algorithms × 6-engines grid (``GRID``) that Tables 2/4/5 and Figures 7/9
share.

Reports are registered with :func:`report` and printed in the terminal
summary, so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures the paper-style tables alongside pytest-benchmark's own timings.
Every report is also written to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.engines import registry
from repro.engines.base import RunResult
from repro.harness.experiments import BENCH_SCALE
from repro.runner import RunSpec, grid_specs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: (title, text) pairs accumulated across the session.
_REPORTS: List[Tuple[str, str]] = []
#: The run union's ``GridReport.summary()``, once ``cells`` has run.
_SUMMARY: List[str] = []

DATASET_ORDER = ("GS", "FK", "FS", "UK")
ALGO_ORDER = ("BFS", "SSSP", "CC", "PR")

#: The Tables-4/5 grid: every (dataset, algorithm) × every engine.
GRID = grid_specs(DATASET_ORDER, ALGO_ORDER, registry.available(),
                  scale=BENCH_SCALE)

GridType = Dict[Tuple[str, str], Dict[str, RunResult]]


def report(name: str, title: str, text: str) -> None:
    """Register a paper-style report for the terminal summary + results dir."""
    _REPORTS.append((title, text))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(title + "\n\n" + text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    for summary in _SUMMARY:
        tr.write_line(f"run union: {summary}")
    if not _REPORTS:
        return
    tr.section("paper reproduction reports")
    for title, text in _REPORTS:
        tr.write_line("")
        tr.write_line(f"==== {title} ====")
        for line in text.splitlines():
            tr.write_line(line)


@pytest.fixture(scope="session")
def cells(request) -> Dict[RunSpec, RunResult]:
    """Every selected module's ``RUNS``, run once: spec → result.

    Cells fan out across worker processes (``REPRO_BENCH_JOBS``, default
    CPU count capped at 8) and persist in ``results/cell-cache`` (or
    ``REPRO_BENCH_CACHE``), so a re-run replays unchanged cells (disable
    with ``REPRO_BENCH_NO_CACHE=1``).  Results are bit-identical whichever
    path produced them.
    """
    from repro.runner import run_grid

    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or min(os.cpu_count() or 1, 8)
    cache = (
        None
        if os.environ.get("REPRO_BENCH_NO_CACHE")
        else os.environ.get(
            "REPRO_BENCH_CACHE", os.path.join(RESULTS_DIR, "cell-cache")
        )
    )
    modules = dict.fromkeys(getattr(item, "module", None)
                            for item in request.session.items)
    runs = list(dict.fromkeys(
        spec for module in modules for spec in getattr(module, "RUNS", ())))
    union = run_grid(runs, jobs=jobs, cache=cache)
    _SUMMARY.append(union.summary())
    failed = [c for c in union.cells if not c.ok]
    if failed:
        raise RuntimeError(
            "figure cells failed: "
            + "; ".join(f"{c.spec.label()}: {c.error}" for c in failed)
        )
    return {c.spec: c.result for c in union.cells}


@pytest.fixture(scope="session")
def grid(cells) -> GridType:
    """The Tables-4/5 grid as ``(dataset, algorithm) → engine → result``.

    A module reading it lists ``GRID`` in its ``RUNS``.  Also dumps the raw
    telemetry to ``results/grid.json`` for downstream analysis.
    """
    from repro.harness.persistence import save_results

    out: GridType = {}
    for spec in GRID:
        out.setdefault((spec.dataset, spec.algorithm), {})[spec.engine] = cells[spec]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    save_results([cells[spec] for spec in GRID],
                 os.path.join(RESULTS_DIR, "grid.json"))
    return out
