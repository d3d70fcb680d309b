"""Command line of the benchmark.  Modes:

``--workload W --seed S --seconds T --trace 0|1``
    The PR driver's protocol: one workload in this process; the last line
    of stdout is ``{"correct", "attempted", "failed", "metrics"}`` with the
    end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
``[--seed S] [-o out.json] [--smoke]``
    The whole suite: each workload untraced, then traced, each in its own
    fresh sequential subprocess (peak RSS and caches are per workload);
    prints every metric by name with its unit and writes the numbers.
``--agree``
    The suite's untraced half twice on the same code and seed; PASS/FAIL
    per workload × metric: host metrics within 10 %, modelled metrics and
    the failure count identical.
``--list``
    Print workloads and metrics without running.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench_e2e import metrics, run
from bench_e2e.workloads import WORKLOADS

#: ``run_seconds`` of ``BENCHMARK.json``: the timed region of one run.
RUN_SECONDS = 10

UNVALIDATED = ("the cost model is validated against the paper's reported "
               "speed-up only, not against hardware")


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json`` as the declarations imply it.

    The modelled metrics sit in ``per_layer``: they are ``n/a`` on some
    workloads and repeat exactly for a seed, while the driver requires
    every ``end_to_end`` metric on every workload, never 0, and different
    on every run.  ``--agree`` holds them to their own (exact) bound.
    """
    def row(m: metrics.Metric, bounded: bool) -> Dict[str, Any]:
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if bounded:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "-m", "bench_e2e"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [row(m, True) for m in metrics.HOST],
        "per_layer": [row(m, False) for m in metrics.MODEL + metrics.PER_LAYER],
    }


# --------------------------------------------------------------- one workload
def _driver_metrics(doc: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if not trace:
        return {m.name: {"value": doc["host"][m.name], "unit": m.unit}
                for m in metrics.HOST}
    out = {m.name: {"value": doc["model"][m.name] or 0.0, "unit": m.unit}
           for m in metrics.MODEL}
    out.update({m.name: {"value": doc["layers"][m.name], "unit": m.unit}
                for m in metrics.PER_LAYER})
    return out


def _print_workload(doc: Dict[str, Any]) -> None:
    info, host = doc["info"], doc["host"]
    print(f"== {doc['workload']}  seed {doc['seed']}: {info['n_ops']} ops x "
          f"{info['passes']} passes (first one cold); "
          f"verify_s {info['verify_s']:.2f}")
    print(f"  {'ops_failed_frac':<28}{doc['failed']}/{doc['attempted']} = "
          f"{doc['failed'] / doc['attempted']:g}   (bound 0)")
    for name, reason in doc["failures"].items():
        print(f"    FAILED {name}: {reason}")
    samples = f"n={info['n_ops']} ops, each its best of {info['passes']} passes"
    notes = {
        "setup_s": f"import {info['import_s']:.2f} + build "
                   f"{statistics.median(info['build_s']):.2f} "
                   f"(median of {len(info['build_s'])}) + warm-up "
                   f"{info['warmup_s']:.2f}",
        "host_s": "pass sums " + ", ".join(f"{s:.3f}" for s in info["pass_host_s"])
                  + "; wall/cpu " + ", ".join(f"{r:.3f}" for r in info["wall_over_cpu"]),
        "host_op_ms_p50": samples,
        "host_op_ms_p90": f"{samples}; {info['n_ops'] // 10} beyond it",
    }
    for m in metrics.HOST:
        print(f"  {m.name:<28}{host[m.name]:>12.4f} {m.unit:<10}"
              f"{notes.get(m.name, '')}")
    for m in metrics.MODEL:
        value = doc["model"][m.name]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({UNVALIDATED})" if m.name == "model_err_vs_paper_pct" \
            and value is not None else ""
        print(f"  {m.name:<28}{shown:>12} {m.unit:<10}exact for a seed{note}")
    if doc["layers"] is not None:
        trace = doc["trace"]
        print(f"  -- per layer, one traced pass ({trace['spans']} spans; "
              f"self times sum to {trace['self_sum_s']:.4f} s of "
              f"{trace['root_s']:.4f} s in op spans)")
        for m in metrics.PER_LAYER:
            print(f"  {m.name:<36}{doc['layers'][m.name]:>14.6g} {m.unit}")


def run_one(args, import_s: float) -> int:
    doc = run.run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke, import_s)
    doc["env"] = run.environment()
    _print_workload(doc)
    if args.doc:
        with open(args.doc, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": _driver_metrics(doc, bool(args.trace)),
    }))
    return 0


# ------------------------------------------------------------------ the suite
def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> Dict[str, Any]:
    """One workload in a fresh subprocess; its result document."""
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    doc_path = run.OUT_DIR / f"doc_{workload}_{trace}_{os.getpid()}.json"
    cmd = [sys.executable, "-m", "bench_e2e", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--doc", str(doc_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=run.REPO_ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} (trace {trace}) exited "
                               f"{proc.returncode}")
        # The child's table, minus its driver-protocol last line.
        print(proc.stdout.rsplit("\n", 2)[0], flush=True)
        with open(doc_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        doc_path.unlink(missing_ok=True)


def run_suite(seed: int, seconds: float, smoke: bool, traced: bool = True
              ) -> Dict[str, Any]:
    suite: Dict[str, Any] = {"seed": seed, "seconds": seconds, "smoke": smoke,
                             "workloads": {}}
    for name in WORKLOADS:
        if smoke and traced:
            # One child does both: its single untraced pass is the timed one.
            doc = _child(name, seed, seconds, 1, smoke)
        else:
            doc = _child(name, seed, seconds, 0, smoke)
            if traced:
                traced_doc = _child(name, seed, seconds, 1, smoke)
                doc["layers"], doc["trace"] = traced_doc["layers"], traced_doc["trace"]
        suite["workloads"][name] = doc
    suite["env"] = next(iter(suite["workloads"].values()))["env"]
    return suite


def _gap(a: float, b: float) -> float:
    return abs(a - b) / abs(a) if a else (0.0 if a == b else float("inf"))


def agree(seed: int, seconds: float, smoke: bool) -> int:
    """Two sets of runs of the same code, judged by each metric's bound."""
    first = run_suite(seed, seconds, smoke, traced=False)
    second = run_suite(seed, seconds, smoke, traced=False)
    ok = True
    print(f"\n{'workload':<16}{'metric':<28}{'run 1':>14}{'run 2':>14}"
          f"{'gap':>9}  bound")
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        rows = [("ops_failed", a["failed"], b["failed"], 0.0)]
        rows += [(m.name, a["host"][m.name], b["host"][m.name],
                  min(m.bound, metrics.AGREE_HOST_BOUND)) for m in metrics.HOST]
        rows += [(m.name, a["model"][m.name], b["model"][m.name], 0.0)
                 for m in metrics.MODEL if a["model"][m.name] is not None]
        for metric, x, y, bound in rows:
            gap = _gap(x, y)
            verdict = "PASS" if gap <= bound else "FAIL"
            ok &= gap <= bound
            print(f"{name:<16}{metric:<28}{x:>14.6g}{y:>14.6g}{gap:>9.2%}  "
                  f"{'exact' if bound == 0 else format(bound, '.0%')} {verdict}")
    for label, suite in (("run 1", first), ("run 2", second)):
        env = suite["env"]
        print(f"{label}: loadavg_1m {env['loadavg_1m']:.2f}, calib_s "
              f"{env['calib_s']:.4f}, wall/cpu per pass "
              + "; ".join(f"{n} " + ",".join(f"{r:.3f}" for r in d["info"]["wall_over_cpu"])
                          for n, d in suite["workloads"].items()))
    print("agree: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def list_only() -> int:
    for name, why in WORKLOADS.items():
        print(f"workload {name}: {why}")
    for m in metrics.HOST + metrics.MODEL:
        print(f"end-to-end {m.name} [{m.unit}] {m.better} is better, "
              f"bound {m.bound:.0%} — {m.help}")
    for m in metrics.PER_LAYER:
        print(f"per-layer {m.name} [{m.unit}] ({m.layer})")
    return 0


def main(argv: Optional[List[str]] = None, import_s: float = 0.0) -> int:
    p = argparse.ArgumentParser(prog="python3 -m bench_e2e", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="scale 5e-5, one timed pass, a cut op list")
    # How the suite reads a child's full document; not a user-facing mode.
    p.add_argument("--doc", help=argparse.SUPPRESS)
    p.add_argument("-o", "--output", help="suite: write the numbers here "
                   "(default bench_e2e/out/bench_seed<S>.json)")
    p.add_argument("--agree", action="store_true")
    p.add_argument("--list", action="store_true")
    args = p.parse_args(argv)
    if args.list:
        return list_only()
    if args.workload:
        return run_one(args, import_s)
    if args.agree:
        return agree(args.seed, args.seconds, args.smoke)
    suite = run_suite(args.seed, args.seconds, args.smoke)
    out = args.output or run.OUT_DIR / f"bench_seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(suite, fh, indent=1)
    print(f"wrote {out}")
    failed = sum(d["failed"] for d in suite["workloads"].values())
    return 0 if failed == 0 else 1
