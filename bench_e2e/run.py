"""Run discipline: set-up, warm-up, timed passes, the traced pass, checks.

One process, one thread (``__main__`` pins the BLAS/OpenMP pools before
NumPy loads).  A workload is an ordered op list; every op is timed with
this module's own ``perf_counter`` with the collector run beforehand and
disabled during the op (the discipline of ``repro.bench.timing``).  The
order of one run is::

    import  →  build ×3 (median)  →  warm-up pass  →  timed passes
            →  [traced pass, cold CLI runs, cached grid passes]
            →  read peak RSS  →  verify outputs

Timed passes repeat until their summed op time reaches ``--seconds``
(always whole passes, at least one).  The warm-up pass is cold and counts
towards ``setup_s``; its op times are still samples for the best-of-passes
estimate (see :func:`bench_e2e.metrics.host_metrics`).  Verification is
outside every timed region and reported as ``verify_s``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from bench_e2e import layers, metrics, workloads
from bench_e2e.trace import Tracer
from bench_e2e.workloads import Built, OpRecord

__all__ = ["run_workload", "environment", "OUT_DIR", "REPO_ROOT"]

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPS = 3
#: Cold ``repro run`` subprocesses behind ``cli.run_cold_s`` (one in smoke).
CLI_COLD_RUNS = 3


@dataclass
class PassResult:
    records: List[OpRecord]
    op_seconds: List[float]
    wall_s: float
    cpu_s: float

    @property
    def host_s(self) -> float:
        return sum(self.op_seconds)


def run_pass(built: Built, keep_values: bool = False,
             tracer: Optional[Tracer] = None) -> PassResult:
    """Run every op once, in order; time each; digest outside the timing."""
    records: List[OpRecord] = []
    op_seconds: List[float] = []
    wall0, cpu0 = perf_counter(), time.process_time()
    for index, op in enumerate(built.ops):
        outcome, error = None, None
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            try:
                if tracer is None:
                    outcome = op.run()
                else:
                    with tracer.span("op:" + op.name, op=index):
                        outcome = op.run()
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            op_seconds.append(perf_counter() - t0)
        finally:
            gc.enable()
        if error is None:
            try:
                record = op.digest(op, outcome, keep_values)
            except Exception as exc:  # malformed outcome: failed, not fatal
                error = f"digest raised {type(exc).__name__}: {exc}"
        if error is not None:
            record = OpRecord(name=op.name, engine=op.engine, group=op.group,
                              failed=error)
        records.append(record)
        del outcome
    return PassResult(records, op_seconds, perf_counter() - wall0,
                      time.process_time() - cpu0)


def _calibration_s() -> float:
    """A fixed in-process kernel (interpreter loop + NumPy sort), best of 3:
    lets a reader normalise host numbers across machines and spot a noisy
    one."""
    rng = np.random.default_rng(0)
    data = rng.random(200_000)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        np.sort(data)
        best = min(best, perf_counter() - t0)
    return best


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1m": os.getloadavg()[0],
        "calib_s": _calibration_s(),
    }


def _cache_passes(built: Built) -> Dict[str, float]:
    """One cached write pass and one read pass over the grid's cells
    (``paper_grid`` only, outside ``host_s``)."""
    specs = [op.spec for op in built.ops]
    root = OUT_DIR / f"cache_{os.getpid()}"
    try:
        t0 = perf_counter()
        workloads.executor.run_grid(specs, jobs=1, cache=root)
        t1 = perf_counter()
        report = workloads.executor.run_grid(specs, jobs=1, cache=root)
        t2 = perf_counter()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"cache_write_s": t1 - t0, "cache_read_s": t2 - t1,
            "cache_hit_ratio": report.n_cached / len(specs)}


def _cli_cold_s(runs: int) -> float:
    """Median wall of ``python -m repro.cli run`` from a cold process: the
    import + argparse + dataset build a ``repro run`` user pays every time."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-m", "repro.cli", "run", "--dataset", "GS",
           "--algo", "BFS", "--scale", "5e-5"]
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class _Failures:
    """Failed ops over ops attempted; one reason kept per op name."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, str] = field(default_factory=dict)

    def count_pass(self, result: PassResult, reference: PassResult) -> None:
        for rec, ref in zip(result.records, reference.records):
            self.attempted += 1
            reason = rec.failed
            if reason is None and (rec.out_sha != ref.out_sha
                                   or rec.model_s != ref.model_s):
                reason = "output or modelled time differs from the warm-up pass"
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(rec.name, reason)

    def count_side(self, name: str, measure, default):
        """One measurement outside the op list (a cold CLI run, the cached
        grid passes): an op attempted; if it raises, an op failed."""
        self.attempted += 1
        try:
            return measure()
        except Exception as exc:
            self.failed += 1
            self.reasons[name] = f"raised {type(exc).__name__}: {exc}"
            return default

    def count_verify(self, bad: Dict[str, str]) -> None:
        for name, reason in bad.items():
            if name not in self.reasons:  # already counted as failed
                self.failed += 1
                self.reasons[name] = reason


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, import_s: float = 0.0) -> Dict[str, Any]:
    """One workload, one process: the full result document."""
    build_samples = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        built = workloads.build(name, seed, smoke)
        build_samples.append(perf_counter() - t0)
    warm = run_pass(built, keep_values=True)
    setup_s = import_s + statistics.median(build_samples) + warm.wall_s

    failures = _Failures()
    failures.count_pass(warm, warm)
    timed: List[PassResult] = []
    while True:
        timed.append(run_pass(built))
        failures.count_pass(timed[-1], warm)
        if trace or smoke or sum(p.host_s for p in timed) >= seconds:
            break

    layer_values = trace_info = None
    if trace:
        tracer = Tracer()
        tracer.install(layers.build_targets())
        try:
            traced = run_pass(built, tracer=tracer)
        finally:
            tracer.uninstall()
        failures.count_pass(traced, warm)
        table = tracer.table()
        table.write_chrome_trace(OUT_DIR / f"trace_{name}.json")
        side = {"graph_build_s": built.graph_build_s,
                "untraced_pass_s": timed[0].host_s,
                "traced_pass_s": traced.host_s}
        side["cli_run_cold_s"] = failures.count_side(
            "cli.run_cold", lambda: _cli_cold_s(1 if smoke else CLI_COLD_RUNS), 0.0)
        if name == "paper_grid":
            side.update(failures.count_side(
                "runner.cache_passes", lambda: _cache_passes(built), {}))
        layer_values = layers.fold_layers(table, tracer.counters,
                                          traced.records, side)
        trace_info = {
            "spans": len(table.name_id),
            "self_sum_s": float(table.self_seconds.sum()),
            "root_s": float(table.duration[table.parent < 0].sum()),
            # op → span → self seconds: which op moved, in which layer.
            "self_by_op": {built.ops[op].name: spans
                           for op, spans in table.self_by_op().items()},
        }

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = perf_counter()
    try:
        failures.count_verify(built.verify(warm.records))
    except Exception as exc:  # a checker that cannot run fails the run
        failures.count_verify({"verify": f"raised {type(exc).__name__}: {exc}"})
    verify_s = perf_counter() - t0

    host = metrics.host_metrics(
        setup_s, [warm.op_seconds] + [p.op_seconds for p in timed], peak_rss_mb)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "correct": failures.failed == 0,
        "attempted": failures.attempted, "failed": failures.failed,
        "failures": failures.reasons,
        "host": host,
        "model": metrics.model_metrics(name, warm.records),
        "layers": layer_values,
        "trace": trace_info,
        "info": {
            "n_ops": len(built.ops),
            "timed_passes": len(timed),
            "passes": 1 + len(timed),
            "import_s": import_s,
            "build_s": build_samples,
            "graph_build_s": built.graph_build_s,
            "warmup_s": warm.wall_s,
            "verify_s": verify_s,
            # First entry: the cold (warm-up) pass.
            "pass_host_s": [p.host_s for p in [warm] + timed],
            "op_ms": {op.name: min(p.op_seconds[i] for p in [warm] + timed) * 1e3
                      for i, op in enumerate(built.ops)},
            "wall_over_cpu": [p.wall_s / p.cpu_s if p.cpu_s else 0.0
                              for p in [warm] + timed],
        },
    }
