"""Metric declarations and the folds that compute them.

Three groups (the glossary is ``README.md``):

``HOST``
    Host wall-clock and memory, measured untraced.  These are the
    ``end_to_end`` list of ``BENCHMARK.json`` — defined on every workload,
    never 0, and different on every run, as the driver's contract requires.
``MODEL``
    Modelled (virtual-time) results.  They repeat exactly for a seed, so the
    bound the suite's ``--agree`` applies is *identical*; the 2 % is the
    regression bound a later PR is judged by, and any drift must name the
    model change that caused it.  Not every one exists on every workload
    (``None`` prints as ``n/a``; the driver protocol needs a number, 0).
``PER_LAYER``
    Single-layer numbers from the traced pass; no bounds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from bench_e2e.layers import ENGINE_NAMES, PHASES, SERVE_LEGS
from bench_e2e.workloads import (DEADLINE_S, FLEET_RATE_LEGS, MIN_ATTAINMENT,
                                 SLO_LEG, OpRecord)

__all__ = ["Metric", "HOST", "MODEL", "PER_LAYER", "host_metrics",
           "model_metrics", "PAPER_SPEEDUP"]

#: The paper's headline: Ascetic 2.0x over Subway (abstract).
PAPER_SPEEDUP = 2.0

#: Regression bounds of ``BENCHMARK.json``: three or more times the usual
#: spread (IQR / median over ten seeds) on the build host and at least twice
#: the widest seen — README "How steady it is".  The issue's flat 10 % does
#: not survive that table: with nothing else running, this shared host slows
#: by 5-10 % for minutes at a time (wall/cpu stays 1.00), which no statistic
#: inside a 25 s run removes.  ``host_s``: usually 2-4 %, widest 5.8 %;
#: medians of ten runs moved by up to 4 % between sets.
HOST_BOUND = 0.15
#: Quantiles over a pass's ops rest on one or two ops: a partly slow run
#: moves them more than it moves the sum (usually 2-5 %, widest 9.8 %).
OP_BOUND = 0.20
RSS_BOUND = 0.10
#: The cold pass is most of set-up and is, by nature, run once (widest
#: spread 10.1 %); the driver's contract wants this bound the largest.
SETUP_BOUND = 0.25
#: ``--agree`` runs one seed twice, back to back: every host metric is held
#: to the issue's 10 % there.
AGREE_HOST_BOUND = 0.10
MODEL_BOUND = 0.02


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str               # "lower" | "higher"
    bound: Optional[float]    # share of the parent's median; None = no bound
    layer: str                # owning layer ("end_to_end" for whole-path ones)
    help: str = ""


HOST = (
    Metric("setup_s", "s", "lower", SETUP_BOUND, "end_to_end",
           "import repro + median of repeated set-ups (cold datasets, "
           "workloads, specs, plans) + the untimed warm-up pass"),
    Metric("host_s", "s", "lower", HOST_BOUND, "end_to_end",
           "one pass's op wall seconds, each op at its best over the passes, "
           "summed"),
    Metric("host_op_ms_p50", "ms", "lower", OP_BOUND, "end_to_end",
           "median over the pass's ops of the op's best wall time"),
    Metric("host_op_ms_p90", "ms", "lower", OP_BOUND, "end_to_end",
           "p90 (interpolated) over the pass's ops of the op's best wall time"),
    Metric("peak_rss_mb", "MB", "lower", RSS_BOUND, "end_to_end",
           "ru_maxrss of the workload's process"),
)

MODEL = (
    Metric("model_ascetic_s", "sim_s", "lower", MODEL_BOUND, "engines",
           "sum of modelled seconds of the Ascetic-engine ops in one pass"),
    Metric("model_speedup_vs_subway", "x", "higher", MODEL_BOUND, "engines",
           "geomean over (dataset, algorithm, memory) of Subway/Ascetic "
           "modelled seconds; paper 2.0x"),
    Metric("model_h2d_ratio_vs_subway", "ratio", "lower", MODEL_BOUND, "engines",
           "Ascetic/Subway processing H2D bytes over the same groups; "
           "paper ~0.39"),
    Metric("model_err_vs_paper_pct", "%", "lower", MODEL_BOUND, "engines",
           "|speed-up - 2.0| / 2.0, paper_grid only; the model is otherwise "
           "unvalidated against hardware"),
    Metric("model_p95_e2e_s", "sim_s", "lower", MODEL_BOUND, "serve",
           f"nearest-rank p95 of Response.e2e_seconds on leg {SLO_LEG}"),
    Metric("model_slo_attainment", "ratio", "higher", MODEL_BOUND, "serve",
           f"completed within deadline / offered on leg {SLO_LEG}; shed and "
           "late both miss"),
    Metric("model_max_rate_ok", "req/sim_s", "higher", MODEL_BOUND, "serve",
           "highest fleet rate with p95 <= deadline and attainment >= "
           f"{MIN_ATTAINMENT}; 0 when none qualifies"),
)


def _layer_metrics() -> List[Metric]:
    def m(name: str, unit: str, better: str = "lower") -> Metric:
        return Metric(name, unit, better, None, name.split(".", 1)[0])

    out = [
        m("graph.build_s", "s"), m("graph.shard_self_s", "s"),
        m("graph.shard_calls", "count"),
        m("algorithms.frontier_self_s", "s"), m("algorithms.frontier_calls", "count"),
        m("algorithms.step_self_s", "s"), m("algorithms.step_calls", "count"),
        m("algorithms.active_edges", "count"),
        m("core.manager_self_s", "s"), m("core.iterations", "count"),
        m("core.region_self_s", "s"), m("core.region_calls", "count"),
        m("core.hotness_self_s", "s"), m("core.plan_ondemand_self_s", "s"),
        m("core.od_rounds", "count"), m("core.repartitions", "count"),
        m("core.swap_gb", "GB"), m("core.static_hit_ratio", "ratio", "higher"),
        m("gpusim.device_self_s", "s"), m("gpusim.device_calls", "count"),
        m("gpusim.emit_self_s", "s"), m("gpusim.emit_rows", "count"),
        m("gpusim.events_recorded", "count"),
        m("gpusim.uvm_self_s", "s"), m("gpusim.fabric_self_s", "s"),
        m("gpusim.faults_self_s", "s"), m("gpusim.faults_injected", "count"),
        m("gpusim.retries", "count"), m("gpusim.retry_model_s", "sim_s"),
        m("gpusim.fold_s", "s"), m("gpusim.validate_s", "s"),
        m("gpusim.host_us_per_sim_op", "us"),
    ]
    out += [m(f"gpusim.phase_model_s.{p}", "sim_s") for p in PHASES]
    out += [m("gpusim.gpu_idle_frac", "ratio"), m("gpusim.h2d_gb", "GB"),
            m("gpusim.direct_gb", "GB")]
    for e in ENGINE_NAMES:
        out += [m(f"engines.{e}.host_s", "s"), m(f"engines.{e}.model_s", "sim_s"),
                m(f"engines.{e}.h2d_gb", "GB"), m(f"engines.{e}.glue_self_s", "s")]
    out += [
        m("engines.Hybrid.policy_self_s", "s"),
        m("engines.Sharded.exchange_gb", "GB"), m("engines.Sharded.reshards", "count"),
        m("harness.make_workload_s", "s"), m("harness.checkpoint_self_s", "s"),
        m("runner.overhead_s", "s"), m("runner.cache_write_s", "s"),
        m("runner.cache_read_s", "s"), m("runner.cache_hit_ratio", "ratio", "higher"),
        m("serve.generate_s", "s"), m("serve.loop_self_s", "s"),
        m("serve.engine_run_s", "s"), m("serve.queue_self_s", "s"),
        m("serve.scheduler_self_s", "s"), m("serve.scheduler_calls", "count"),
        m("serve.pool_self_s", "s"),
        m("serve.pool_warm_hit_ratio", "ratio", "higher"),
        m("serve.router_self_s", "s"), m("serve.router_calls", "count"),
        m("serve.fold_slo_s", "s"), m("serve.events", "count"),
        m("serve.shed_frac", "ratio"), m("serve.retries", "count"),
        m("serve.queue_wait_model_s_p50", "sim_s"),
        m("serve.service_model_s_p50", "sim_s"),
    ]
    for leg in SERVE_LEGS:
        out += [m(f"serve.{leg}.p95_e2e_model_s", "sim_s"),
                m(f"serve.{leg}.attainment", "ratio", "higher")]
    out += [m("analysis.chrome_trace_s", "s"), m("analysis.trace_events", "count"),
            m("cli.run_cold_s", "s"),
            m("trace.unattributed_frac", "ratio"), m("trace.overhead_frac", "ratio")]
    return out


PER_LAYER = tuple(_layer_metrics())


def host_metrics(setup_s: float, pass_op_seconds: List[List[float]],
                 peak_rss_mb: float) -> Dict[str, float]:
    """The ``HOST`` values from every pass's per-op wall seconds.

    Each op's time is its *best* over the passes: interference on a shared
    host only ever adds time (the estimator ``repro.bench.timing`` uses, for
    the same reason), and the bursts seen here last a few seconds — they
    hit one op in one pass.  The first pass is the cold one; cold costs
    only add time too, so it is a valid sample that the minimum ignores.
    """
    best = [min(samples) for samples in zip(*pass_op_seconds)]
    return {
        "setup_s": setup_s,
        "host_s": sum(best),
        "host_op_ms_p50": statistics.median(best) * 1e3,
        # Interpolated, not nearest-rank: on a short op list nearest-rank is
        # one op (the slowest of serve_fleet's eight legs).
        "host_op_ms_p90": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def model_metrics(workload: str, records: List[OpRecord]) -> Dict[str, Optional[float]]:
    """The ``MODEL`` values from one pass's op records (``None`` = n/a)."""
    out: Dict[str, Optional[float]] = {m.name: None for m in MODEL}
    ok = [r for r in records if not r.failed]
    out["model_ascetic_s"] = sum(r.model_s for r in ok if r.engine == "Ascetic")
    groups: Dict[tuple, Dict[str, OpRecord]] = {}
    for r in ok:
        if r.group is not None and r.engine in ("Subway", "Ascetic"):
            groups.setdefault(r.group, {})[r.engine] = r
    pairs = [(g["Subway"], g["Ascetic"]) for g in groups.values() if len(g) == 2]
    if pairs:
        speedup = math.exp(statistics.fmean(
            math.log(sub.model_s / asc.model_s) for sub, asc in pairs))
        out["model_speedup_vs_subway"] = speedup
        out["model_h2d_ratio_vs_subway"] = (
            sum(asc.proc_h2d for _, asc in pairs)
            / sum(sub.proc_h2d for sub, _ in pairs))
        if workload == "paper_grid":
            out["model_err_vs_paper_pct"] = (
                abs(speedup - PAPER_SPEEDUP) / PAPER_SPEEDUP * 100.0)
    legs = {r.name: r.leg for r in ok if r.leg is not None}
    if SLO_LEG in legs:
        out["model_p95_e2e_s"] = legs[SLO_LEG]["p95_e2e_model_s"]
        out["model_slo_attainment"] = legs[SLO_LEG]["attainment"]
        out["model_max_rate_ok"] = max(
            [rate for name, rate in FLEET_RATE_LEGS
             if name in legs
             and legs[name]["p95_e2e_model_s"] <= DEADLINE_S
             and legs[name]["attainment"] >= MIN_ATTAINMENT],
            default=0.0)
    return out
