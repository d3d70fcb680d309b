"""Layer boundaries: which public callables are spans, and how spans and
counters fold into the per-layer metrics of ``metrics.PER_LAYER``.

A layer is a ``repro`` sub-package.  ``<layer>.<x>_self_s`` is the summed
*self* time of the layer's spans in one traced pass — what a faster layer
could save at most, since nothing runs concurrently.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from bench_e2e.trace import SpanTable, Target
from bench_e2e.workloads import FLEET_RATE_LEGS, OpRecord

__all__ = ["build_targets", "fold_layers", "ENGINE_NAMES", "PHASES", "SERVE_LEGS"]

ENGINE_NAMES = ("PT", "UVM", "Subway", "Ascetic", "Hybrid", "Sharded")
PHASES = ("Tmap", "Tsr", "Tfilling", "Ttransfer", "Tondemand", "Tswap",
          "Tprefill", "Texchange", "Trecover")
SERVE_LEGS = ("s1_r005", "s1_r01", "s1_r02") + tuple(
    name for name, _ in FLEET_RATE_LEGS) + ("f4_chaos", "f4_overload")


def _engine_span(args) -> str:
    return f"engines.{args[0].name}.run"


def _probe_iteration(counters, args, kwargs, out) -> None:
    gpu = args[0] if args else kwargs["gpu"]
    counters["core.od_rounds"] += out.n_rounds
    counters["core.repartitions"] += bool(out.repartitioned)
    # Chunks are scaled bytes; report at paper scale like every byte metric.
    counters["core.swap_bytes"] += out.swap_bytes * gpu.charge_scale
    counters["core.static_edges"] += out.static_edges
    counters["core.ondemand_edges"] += out.ondemand_edges


def _probe_emit_batch(counters, args, kwargs, out) -> None:
    starts = args[4] if len(args) > 4 else kwargs["starts"]
    counters["gpusim.batches"] += 1
    counters["gpusim.batch_rows"] += len(starts)


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def build_targets() -> List[Target]:
    """The span boundaries, one :class:`Target` per wrapped callable."""
    from repro.algorithms import base as algo_base, frontier
    from repro.analysis import traces
    from repro.core import manager, ondemand, replacement, static_region
    from repro.engines import base as engine_base, hybrid, sharded
    from repro.gpusim import device, events, fabric, faults, uvm
    from repro.graph import shard
    from repro.harness import checkpoint, experiments
    from repro.runner import cache, executor
    from repro.serve import (fleet, pool, queue, request, scheduler,
                             simulator, slo)

    def methods(span: str, cls: type, *names: str, **kw) -> List[Target]:
        return [Target(span, cls, name, **kw) for name in names]

    targets = [
        # graph
        Target("graph.shard", shard, "shard_graph"),
        Target("graph.shard", shard, "per_shard_budgets"),
        Target("graph.shard", shard, "halo_map"),
        # algorithms
        Target("algorithms.frontier", frontier, "expand_frontier"),
        Target("algorithms.frontier", frontier, "active_edge_count"),
        *methods("algorithms.frontier", frontier.FrontierCache,
                 "vertices", "edge_count", "expansion"),
        # core
        Target("core.manager", manager, "run_iteration", probe=_probe_iteration),
        *methods("core.region", static_region.StaticRegion,
                 "__init__", "vertex_static_bitmap", "fragment_resident_counts",
                 "resident_runs", "touched_chunk_runs", "resident_count_in_runs",
                 "chunk_touch_counts", "top_up", "promote_vertices", "swap",
                 "shrink_to"),
        *methods("core.hotness", replacement.HotnessTable,
                 "update", "update_runs", "plan_swaps", "staleness", "hotness"),
        Target("core.plan_ondemand", ondemand, "plan_ondemand"),
        # gpusim
        *methods("gpusim.device", device.SimulatedGPU,
                 "h2d", "d2h", "direct_access", "edge_kernel", "vertex_scan",
                 "cpu_gather", "cpu_work"),
        *methods("gpusim.emit", events.EventLog, "emit_op", "marker"),
        Target("gpusim.emit", events.EventLog, "emit_batch",
               probe=_probe_emit_batch),
        *methods("gpusim.uvm", uvm.UVMMemory,
                 "touch", "prefetch", "advise_pin", "shrink_capacity"),
        *methods("gpusim.fabric", fabric.Fabric,
                 "__init__", "transfer", "all_exchange", "sync_all",
                 "check_health"),
        *methods("gpusim.faults", faults.FaultInjector,
                 "transfer_outcome", "link_state", "peer_link_state",
                 "kernel_outcome", "alloc_should_fail", "squeeze_starts",
                 "squeeze_releases", "device_state", "device_down_at"),
        Target("gpusim.fold", events, "fold_metrics"),
        Target("gpusim.fold", events, "idle_breakdown"),
        Target("gpusim.validate", events, "validate_log"),
        # engines
        Target("engines.run", engine_base.Engine, "run", name_of=_engine_span),
        Target("engines.run", sharded.ShardedEngine, "run", name_of=_engine_span),
        Target("engines.Hybrid.policy", hybrid.HybridPolicy, "plan"),
        # harness
        Target("harness.make_workload", experiments, "make_workload"),
        Target("harness.run", experiments, "run_cell"),
        Target("harness.run", experiments, "run_workload"),
        *methods("harness.checkpoint", checkpoint.CheckpointStore,
                 "save", "load", "clear"),
        Target("harness.checkpoint", checkpoint.CheckpointWriter, "save"),
        # The superstep checkpoints a sharded run keeps under a device-fault
        # plan are built here; private, but the only checkpoint cost any
        # workload pays.
        Target("harness.checkpoint", sharded.ShardedEngine, "_shard_checkpoint"),
        # runner
        Target("runner.run_grid", executor, "run_grid"),
        *methods("runner.cache", cache.ResultCache, "lookup", "store"),
        # serve
        Target("serve.generate", request, "generate_requests"),
        Target("serve.loop", simulator, "run_load_test"),
        Target("serve.loop", fleet, "run_fleet_test"),
        *methods("serve.queue", queue.AdmissionQueue,
                 "offer", "purge_expired", "take", "note_completed"),
        Target("serve.scheduler", scheduler.Scheduler, "select"),
        *methods("serve.pool", pool.EnginePool,
                 "acquire", "fold_result", "warm_keys"),
        *methods("serve.router", fleet.Router,
                 "decide", "usable", "note_failure", "note_success"),
        Target("serve.fold_slo", slo, "fold_slo"),
        # analysis
        Target("analysis.chrome_trace", traces, "to_chrome_trace"),
    ]
    for cls in _subclasses(algo_base.VertexProgram):
        if "step" in vars(cls):
            targets.append(Target("algorithms.step", cls, "step"))
    return targets


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fold_layers(table: SpanTable, probes: Dict[str, float],
                records: List[OpRecord], side: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values of one traced pass.

    ``probes`` are the tracer's counters, ``records`` the traced pass's op
    records (modelled numbers: exact, tracing does not move them), ``side``
    the measurements taken around the pass (set-up splits, the untraced
    pass, cache passes, cold CLI runs).
    """
    self_s = table.self_by_name()
    calls = table.calls_by_name()
    total = table.total_by_name()
    engine_total = table.outermost_total("engines.", ".run")

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> float:
        return calls.get(name, 0.0)

    counters: Dict[str, float] = {}
    by_engine: Dict[str, Dict[str, float]] = {e: {} for e in ENGINE_NAMES}
    for rec in records:
        for key, value in rec.counters.items():
            counters[key] = counters.get(key, 0.0) + value
            if rec.engine in by_engine:
                bucket = by_engine[rec.engine]
                bucket[key] = bucket.get(key, 0.0) + value

    def c(key: str) -> float:
        return counters.get(key, 0.0)

    sim_ops = (c("metrics.h2d_transfers") + c("metrics.d2h_transfers")
               + c("metrics.kernel_launches") + c("metrics.direct_accesses"))
    root_s = sum(v for k, v in total.items() if k.startswith("op:"))
    root_self = sum(v for k, v in self_s.items() if k.startswith("op:"))

    out: Dict[str, float] = {
        "graph.build_s": side["graph_build_s"],
        "graph.shard_self_s": s("graph.shard"),
        "graph.shard_calls": n("graph.shard"),
        "algorithms.frontier_self_s": s("algorithms.frontier"),
        "algorithms.frontier_calls": n("algorithms.frontier"),
        "algorithms.step_self_s": s("algorithms.step"),
        "algorithms.step_calls": n("algorithms.step"),
        "algorithms.active_edges": c("active_edges"),
        "core.manager_self_s": s("core.manager"),
        "core.iterations": n("core.manager"),
        "core.region_self_s": s("core.region"),
        "core.region_calls": n("core.region"),
        "core.hotness_self_s": s("core.hotness"),
        "core.plan_ondemand_self_s": s("core.plan_ondemand"),
        "core.od_rounds": probes.get("core.od_rounds", 0.0),
        "core.repartitions": probes.get("core.repartitions", 0.0),
        "core.swap_gb": probes.get("core.swap_bytes", 0.0) / 1e9,
        "core.static_hit_ratio": _ratio(
            probes.get("core.static_edges", 0.0),
            probes.get("core.static_edges", 0.0)
            + probes.get("core.ondemand_edges", 0.0)),
        "gpusim.device_self_s": s("gpusim.device"),
        "gpusim.device_calls": n("gpusim.device"),
        "gpusim.emit_self_s": s("gpusim.emit"),
        # One row per emit_op/marker call, plus the rows of each batch.
        "gpusim.emit_rows": n("gpusim.emit") - probes.get("gpusim.batches", 0.0)
                            + probes.get("gpusim.batch_rows", 0.0),
        "gpusim.events_recorded": c("events_recorded"),
        "gpusim.uvm_self_s": s("gpusim.uvm"),
        "gpusim.fabric_self_s": s("gpusim.fabric"),
        "gpusim.faults_self_s": s("gpusim.faults"),
        "gpusim.faults_injected": c("faults_injected"),
        "gpusim.retries": c("metrics.transfer_retries") + c("metrics.kernel_aborts"),
        "gpusim.retry_model_s": c("metrics.retry_seconds"),
        "gpusim.fold_s": total.get("gpusim.fold", 0.0),
        "gpusim.validate_s": total.get("gpusim.validate", 0.0),
        "gpusim.host_us_per_sim_op": _ratio(side["untraced_pass_s"] * 1e6, sim_ops),
        "gpusim.gpu_idle_frac": _ratio(c("gpu_idle_s"), c("model_s")),
        "gpusim.h2d_gb": c("metrics.bytes_h2d") / 1e9,
        "gpusim.direct_gb": c("metrics.bytes_direct") / 1e9,
        "engines.Hybrid.policy_self_s": s("engines.Hybrid.policy"),
        "engines.Sharded.exchange_gb": c("exchange_bytes") / 1e9,
        "engines.Sharded.reshards": c("device_losses"),
        "harness.make_workload_s": total.get("harness.make_workload", 0.0),
        "harness.checkpoint_self_s": s("harness.checkpoint"),
        "runner.overhead_s": s("runner.run_grid"),
        "runner.cache_write_s": side.get("cache_write_s", 0.0),
        "runner.cache_read_s": side.get("cache_read_s", 0.0),
        "runner.cache_hit_ratio": side.get("cache_hit_ratio", 0.0),
        "serve.generate_s": total.get("serve.generate", 0.0),
        "serve.loop_self_s": s("serve.loop"),
        "serve.engine_run_s": sum(engine_total.values()) if total.get("serve.loop") else 0.0,
        "serve.queue_self_s": s("serve.queue"),
        "serve.scheduler_self_s": s("serve.scheduler"),
        "serve.scheduler_calls": n("serve.scheduler"),
        "serve.pool_self_s": s("serve.pool"),
        "serve.pool_warm_hit_ratio": _ratio(
            c("serve.warm_runs"), c("serve.pool_hits") + c("serve.pool_misses")),
        "serve.router_self_s": s("serve.router"),
        "serve.router_calls": n("serve.router"),
        "serve.fold_slo_s": total.get("serve.fold_slo", 0.0),
        "serve.events": c("serve.events"),
        "serve.shed_frac": _ratio(c("serve.shed"), c("serve.offered")),
        "serve.retries": c("serve.retries"),
        "analysis.chrome_trace_s": total.get("analysis.chrome_trace", 0.0),
        "analysis.trace_events": c("trace_events"),
        "cli.run_cold_s": side.get("cli_run_cold_s", 0.0),
        "trace.unattributed_frac": _ratio(root_self, root_s),
        "trace.overhead_frac": _ratio(
            side["traced_pass_s"] - side["untraced_pass_s"], side["untraced_pass_s"]),
    }
    for phase in PHASES:
        out[f"gpusim.phase_model_s.{phase}"] = c(f"phase.{phase}")
    for engine in ENGINE_NAMES:
        bucket = by_engine[engine]
        out[f"engines.{engine}.host_s"] = engine_total.get(f"engines.{engine}.run", 0.0)
        out[f"engines.{engine}.model_s"] = bucket.get("model_s", 0.0)
        out[f"engines.{engine}.h2d_gb"] = bucket.get("metrics.bytes_h2d", 0.0) / 1e9
        out[f"engines.{engine}.glue_self_s"] = s(f"engines.{engine}.run")
    legs = {rec.name: rec.leg for rec in records if rec.leg is not None}
    waits = [w for leg in legs.values() for w in leg["queue_wait_model_s"]]
    services = [w for leg in legs.values() for w in leg["service_model_s"]]
    out["serve.queue_wait_model_s_p50"] = statistics.median(waits) if waits else 0.0
    out["serve.service_model_s_p50"] = statistics.median(services) if services else 0.0
    for name in SERVE_LEGS:
        leg: Dict[str, Any] = legs.get(name, {})
        out[f"serve.{name}.p95_e2e_model_s"] = leg.get("p95_e2e_model_s", 0.0)
        out[f"serve.{name}.attainment"] = leg.get("attainment", 0.0)
    return out
