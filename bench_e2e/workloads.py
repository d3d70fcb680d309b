"""The four workloads: what one *pass* runs, and how its outputs are checked.

A workload is built from ``(seed, smoke)`` into an ordered list of
:class:`Op`.  An op is one call a user of the system would make — a
one-cell ``run_grid``, a recorded chaos run with its folds and trace export,
a whole load test.  ``Op.run`` is the timed region; ``Op.digest`` runs
outside it and boils the outcome down to an :class:`OpRecord` so result
arrays and event logs do not pile up across a pass (``peak_rss_mb`` is a
metric).

Every call into ``repro`` goes through a *module attribute* looked up at
call time (``executor.run_grid(...)``, never a name imported here), so the
traced pass can rebind the callee — see :mod:`bench_e2e.trace`.

Sizing notes (this host, 2 cores, one thread): see ``README.md``.  The
issue's op lists were cut to fit the driver's total run-time cap; what was
cut is listed there too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import validate
from repro.analysis import traces
from repro.gpusim import events
from repro.gpusim.faults import standard_fleet_plan, standard_plan
from repro.graph.properties import best_source
from repro.harness import experiments
from repro.runner import RunSpec, executor
from repro.serve import fleet, simulator

__all__ = ["WORKLOADS", "Op", "OpRecord", "Built", "build", "nearest_rank"]

#: Dataset down-scale of the engine workloads (the repo's benchmark default).
SCALE = 2e-4
#: ``--smoke``: every cell finishes in well under a second.
SMOKE_SCALE = 5e-5
#: Load tests: small graphs so one pass holds 2400 requests.
SERVE_SCALE = 1e-5

PAPER_ENGINES = ("PT", "UVM", "Subway", "Ascetic")
SHARDED_OPTS = {"devices": 4, "inner": "Ascetic"}
DEADLINE_S = 60.0
#: The three fleet rates of ``model_max_rate_ok`` and the leg it reads.
FLEET_RATE_LEGS = (("f4_r01", 0.1), ("f4_r02", 0.2), ("f4_r04", 0.4))
SLO_LEG = "f4_r02"
MIN_ATTAINMENT = 0.9

#: Name → why it exists (``BENCHMARK.json`` carries these, one line each).
#: The last sentence of the first is the only place that file can say it: the
#: exact ``model_*`` metrics are in its unbounded ``per_layer`` list.
WORKLOADS: Dict[str, str] = {
    "paper_grid": "the paper's Table 4/5 cells at default memory: lean "
                  "emission, frontier walk, region accounting, UVM pager; "
                  "no-change control for round streaming and serving. "
                  "model_* drift is gated by --agree only",
    "oom_pressure": "memory at 0.2-0.6x the dataset: on-demand rounds, "
                    "swap/replacement, HybridPolicy.plan and fabric exchange "
                    "dominate (the regime where Hybrid and Ascetic diverge)",
    "recorded_chaos": "record_events + fault plans force the per-round loops "
                      "the lean fast paths skip, plus validate/fold/trace "
                      "export; a lean-only gain that costs recording shows",
    "serve_fleet": "eight load-test legs: the only workload where queue, "
                   "scheduler, warm pool, router and fold_slo run; one "
                   "overload leg that sheds most of its requests",
}


@dataclass
class OpRecord:
    """What survives of one op: counters that add up, plus a value digest."""

    name: str
    engine: Optional[str] = None
    #: ``(dataset, algorithm, memory label)`` — the Subway-vs-Ascetic group.
    group: Optional[Tuple[str, str, str]] = None
    failed: Optional[str] = None
    model_s: float = 0.0
    #: Processing H2D bytes (prefill excluded), the paper's Table 5 number.
    proc_h2d: float = 0.0
    #: Additive counters: ``metrics.<field>``, ``phase.<name>``, extras.
    counters: Dict[str, float] = field(default_factory=dict)
    #: sha1 of the output (value array / canonical response list).
    out_sha: str = ""
    #: The value array itself, kept only on the verification pass.
    values: Optional[np.ndarray] = None
    #: Serve legs only: the SLO summary of the leg.
    leg: Optional[Dict[str, Any]] = None


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    digest: Callable[["Op", Any, bool], OpRecord]
    engine: Optional[str] = None
    group: Optional[Tuple[str, str, str]] = None
    #: Grid ops only: the cell, for the cached re-runs of the traced mode.
    spec: Optional[RunSpec] = None


@dataclass
class Built:
    """A workload ready to run: its ops, its checker, its set-up split."""

    ops: List[Op]
    #: ``verify(records) -> {op name: reason}`` over one pass's records
    #: (run on the warm-up pass, whose records keep their value arrays).
    verify: Callable[[List[OpRecord]], Dict[str, str]]
    #: Seconds spent generating datasets (cold cache) inside ``build``.
    graph_build_s: float = 0.0


# ------------------------------------------------------------------ digests
def _add(counters: Dict[str, float], key: str, value: float) -> None:
    if value:
        counters[key] = counters.get(key, 0.0) + float(value)


def _fold_result(counters: Dict[str, float], result) -> None:
    """Add one ``RunResult``'s accounting to ``counters``."""
    for key, value in result.metrics.as_dict().items():
        if key.startswith("phase:"):
            _add(counters, "phase." + key[6:], value)
        else:
            _add(counters, "metrics." + key, value)
    _add(counters, "model_s", result.elapsed_seconds)
    _add(counters, "gpu_idle_s", result.gpu_idle_fraction * result.elapsed_seconds)
    _add(counters, "active_edges",
         sum(rec.n_active_edges for rec in result.per_iteration))
    extra = result.extra
    for key in ("exchange_bytes", "device_losses"):
        _add(counters, key, extra.get(key, 0.0))
    _add(counters, "faults_injected",
         sum(v for k, v in extra.items()
             if k.startswith("fault_") and not k.endswith("_windows")))
    if result.event_log is not None:
        _add(counters, "events_recorded", len(result.event_log.events))


def _sha(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digest_result(op: Op, result, keep_values: bool,
                   trace_events: int = 0) -> OpRecord:
    rec = OpRecord(name=op.name, engine=op.engine, group=op.group,
                   model_s=result.elapsed_seconds,
                   proc_h2d=float(result.processing_bytes_h2d),
                   out_sha=_sha(result.values))
    _fold_result(rec.counters, result)
    _add(rec.counters, "trace_events", trace_events)
    if keep_values:
        rec.values = result.values
    return rec


def _digest_grid(op: Op, report, keep_values: bool) -> OpRecord:
    cell = report.cells[0]
    if not cell.ok:
        return OpRecord(name=op.name, engine=op.engine, group=op.group,
                        failed=f"cell failed: {cell.error}")
    return _digest_result(op, cell.result, keep_values)


def _digest_chaos(op: Op, outcome, keep_values: bool) -> OpRecord:
    result, n_trace_events = outcome
    return _digest_result(op, result, keep_values, n_trace_events)


def nearest_rank(samples: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]); 0.0 for no samples."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def _digest_leg(op: Op, res, keep_values: bool) -> OpRecord:
    """Fold a load test: engine accounting plus the leg's SLO summary."""
    rec = OpRecord(name=op.name, engine=op.engine)
    for result in res.run_results:
        _fold_result(rec.counters, result)
    rec.model_s = rec.counters.get("model_s", 0.0)
    responses = res.responses
    offered = len(res.requests)
    completed = [r for r in responses if r.completed]
    stats = res.pool_stats
    _add(rec.counters, "serve.events", len(res.events))
    _add(rec.counters, "serve.offered", offered)
    _add(rec.counters, "serve.shed", offered - len(completed))
    _add(rec.counters, "serve.retries", sum(r.retries for r in responses))
    _add(rec.counters, "serve.pool_hits", stats.hits)
    _add(rec.counters, "serve.pool_misses", stats.misses)
    _add(rec.counters, "serve.warm_runs", stats.warm_runs)
    rec.leg = {
        "p95_e2e_model_s": nearest_rank([r.e2e_seconds for r in completed], 0.95),
        # Shed and late requests both miss the deadline.
        "attainment": sum(r.deadline_met for r in responses) / max(offered, 1),
        "queue_wait_model_s": [r.queue_seconds for r in completed],
        "service_model_s": [r.service_seconds for r in completed],
    }
    payload = [(r.request.request_id, r.status.value, r.start_time,
                r.finish_time, r.device, r.retries) for r in responses]
    rec.out_sha = hashlib.sha1(json.dumps(payload).encode()).hexdigest()
    # Exactly one response per request, in request order.
    ids = [r.request.request_id for r in responses]
    if ids != [q.request_id for q in res.requests]:
        rec.failed = "responses do not match requests one to one"
    elif any(r.finish_time < r.start_time or r.start_time < r.request.arrival
             for r in completed):
        rec.failed = "a completed response runs backwards in time"
    return rec


# ------------------------------------------------------------- verification
def _check_reference(workload, algorithm: str, values: np.ndarray) -> Optional[str]:
    """Why ``values`` disagrees with ``repro.algorithms.validate`` (or None)."""
    graph = workload.graph
    if algorithm == "PR":
        try:
            # The repo's own tolerance for residual-push PR (tests use it
            # at a tighter activation threshold; measured error here 6e-3).
            validate.assert_allclose_ranks(
                values, validate.reference_pagerank(graph), rtol=2e-2)
        except AssertionError as exc:
            return str(exc)
        return None
    if algorithm == "BFS":
        ref = validate.reference_bfs_levels(graph, best_source(graph))
    elif algorithm == "SSSP":
        ref = validate.reference_sssp_distances(graph, best_source(graph))
    else:
        ref = validate.reference_cc_labels(graph)
    return None if np.array_equal(values, ref) else "differs from reference"


def _verify_values(workloads: Dict[Tuple[str, str], Any],
                   baselines: Optional[Dict[str, np.ndarray]] = None):
    """Per (dataset, algorithm): every engine equals the first engine, and
    that array is checked once against the reference.  With ``baselines``
    (op name → fault-free values) each op must also equal its baseline."""

    def verify(records: List[OpRecord]) -> Dict[str, str]:
        bad: Dict[str, str] = {}
        first: Dict[Tuple[str, str], OpRecord] = {}
        for rec in records:
            if rec.failed or rec.values is None:
                continue
            key = rec.group[:2]
            lead = first.setdefault(key, rec)
            if lead is rec:
                reason = _check_reference(workloads[key], key[1], rec.values)
                if reason:
                    bad[rec.name] = reason
            elif not np.array_equal(rec.values, lead.values):
                bad[rec.name] = f"values differ from {lead.name}"
            if baselines is not None and not np.array_equal(
                    rec.values, baselines[rec.name]):
                bad[rec.name] = "values differ from the fault-free run"
        return bad

    return verify


# ---------------------------------------------------------------- workloads
def _cold_datasets(datasets, scale: float) -> float:
    """Generate the datasets from a cold cache; seconds spent."""
    experiments.clear_dataset_cache()
    t0 = perf_counter()
    for abbr in datasets:
        experiments.make_workload(abbr, "CC", scale=scale)
    return perf_counter() - t0


def _grid_op(spec: RunSpec, memory_label: str) -> Op:
    return Op(
        name=f"{spec.dataset}/{spec.algorithm}/{memory_label}/{spec.engine}",
        run=lambda: executor.run_grid([spec], jobs=1, cache=None),
        digest=_digest_grid, engine=spec.engine,
        group=(spec.dataset, spec.algorithm, memory_label), spec=spec,
    )


def build_paper_grid(seed: int, smoke: bool) -> Built:
    scale = SMOKE_SCALE if smoke else SCALE
    datasets = ("FK", "GS")
    algos = ("BFS", "CC") if smoke else ("BFS", "SSSP", "CC", "PR")
    build_s = _cold_datasets(datasets, scale)
    workloads = {(d, a): experiments.make_workload(d, a, scale=scale)
                 for d in datasets for a in algos}
    ops = [_grid_op(RunSpec(d, a, e, scale=scale), "paper")
           for d in datasets for a in algos for e in PAPER_ENGINES]
    return Built(ops, _verify_values(workloads), build_s)


#: (dataset, algorithm, memory ratios, engines).  The issue's 60 ops
#: (5 cells x 3 ratios x 4 engines, ~17.7 s a pass here) do not fit the
#: driver's run-time cap with a warm-up and two timed passes; kept: both
#: ends of the ratio range on the traversal cells, and the FK/PR cell —
#: where Hybrid's per-round loop costs 2.4 s — at the deepest ratio.
OOM_ENGINES = ("Subway", "Ascetic", "Hybrid", "Sharded")
OOM_CELLS = (
    ("FK", "BFS", (0.2, 0.6), OOM_ENGINES),
    ("FK", "SSSP", (0.2, 0.6), OOM_ENGINES),
    ("GS", "BFS", (0.2, 0.6), OOM_ENGINES),
    ("GS", "SSSP", (0.2, 0.6), OOM_ENGINES),
    ("FK", "PR", (0.2,), ("Subway", "Ascetic", "Hybrid")),
)


def build_oom_pressure(seed: int, smoke: bool) -> Built:
    scale = SMOKE_SCALE if smoke else SCALE
    cells = OOM_CELLS[:1] + OOM_CELLS[3:4] if smoke else OOM_CELLS
    build_s = _cold_datasets(sorted({c[0] for c in cells}), scale)
    workloads, ops = {}, []
    for dataset, algo, ratios, engines in cells:
        w = workloads[(dataset, algo)] = experiments.make_workload(
            dataset, algo, scale=scale)
        for ratio in ratios:
            memory = int(ratio * w.graph.dataset_bytes)
            for engine in engines:
                spec = RunSpec(dataset, algo, engine, scale=scale,
                               memory_bytes=memory,
                               engine_opts=SHARDED_OPTS if engine == "Sharded" else {})
                ops.append(_grid_op(spec, f"m{ratio:g}"))
    return Built(ops, _verify_values(workloads), build_s)


#: (dataset, algorithm, engines) run recorded under ``standard_plan``, and
#: the sharded cells run under ``standard_fleet_plan``.  Cut from the
#: issue's 38 ops (~17.3 s a pass here): CC everywhere, SSSP and PR on FK.
CHAOS_ENGINES = ("PT", "UVM", "Subway", "Ascetic", "Hybrid")
CHAOS_CELLS = (
    ("FK", "BFS", CHAOS_ENGINES),
    ("GS", "BFS", CHAOS_ENGINES),
    ("GS", "SSSP", CHAOS_ENGINES),
    ("GS", "PR", ("Subway", "Ascetic")),
)
CHAOS_SHARDED = (("FK", "BFS"), ("GS", "BFS"))


def _chaos_op(workload, dataset: str, algo: str, engine: str, plan, seed: int,
              engine_opts: Dict[str, Any]) -> Op:
    idle_lane = "gpu@0" if engine == "Sharded" else "gpu"

    def run():
        result = experiments.run_workload(
            workload, engine, record_events=True, fault_plan=plan, seed=seed,
            **engine_opts)
        log = result.event_log
        events.validate_log(log, metrics=result.metrics,
                            horizon=result.elapsed_seconds)
        events.fold_metrics(log.events)
        events.idle_breakdown(log, idle_lane, result.elapsed_seconds)
        doc = traces.to_chrome_trace(result)
        json.dumps(doc)  # serialised in memory: what `repro trace` writes
        return result, len(doc["traceEvents"])

    return Op(name=f"{dataset}/{algo}/chaos/{engine}", run=run,
              digest=_digest_chaos, engine=engine,
              group=(dataset, algo, "chaos"))


def build_recorded_chaos(seed: int, smoke: bool) -> Built:
    scale = SMOKE_SCALE if smoke else SCALE
    cells = CHAOS_CELLS[1:2] if smoke else CHAOS_CELLS
    sharded = CHAOS_SHARDED[1:] if smoke else CHAOS_SHARDED
    build_s = _cold_datasets(sorted({c[0] for c in cells} | {c[0] for c in sharded}),
                             scale)
    workloads = {(d, a): experiments.make_workload(d, a, scale=scale)
                 for d, a in [c[:2] for c in cells] + list(sharded)}
    plan = standard_plan()
    ops = [_chaos_op(workloads[(d, a)], d, a, e, plan, seed, {})
           for d, a, engines in cells for e in engines]
    baselines: Dict[str, np.ndarray] = {}
    for d, a in sharded:
        # The device dies at half the fault-free horizon, so the plan needs
        # one fault-free run; its values are the op's baseline as well.
        base = experiments.run_workload(workloads[(d, a)], "Sharded", **SHARDED_OPTS)
        horizon = base.elapsed_seconds
        fleet_plan = standard_fleet_plan(
            seed, SHARDED_OPTS["devices"], down_at=horizon / 2,
            degrade_start=horizon * 0.6, degrade_end=horizon * 0.8)
        op = _chaos_op(workloads[(d, a)], d, a, "Sharded", fleet_plan, seed,
                       SHARDED_OPTS)
        baselines[op.name] = base.values
        ops.append(op)

    by_values = _verify_values(workloads, baselines)

    def verify(records: List[OpRecord]) -> Dict[str, str]:
        # Fault-free baselines of the single-device ops, computed here
        # (verification time, not set-up: no op needs them to run).
        for d, a, engines in cells:
            for e in engines:
                name = f"{d}/{a}/chaos/{e}"
                if name not in baselines:
                    baselines[name] = experiments.run_workload(
                        workloads[(d, a)], e).values
        return by_values(records)

    return Built(ops, verify, build_s)


def _serve_legs(seed: int, scale: float, n_requests: int):
    """``(leg name, callable)`` for the eight load tests of one pass.

    Every leg draws its own request trace: the sub-seed differs per leg,
    so one unlucky mix does not repeat eight times in a pass.
    """
    def single(leg: int, rate: float):
        return replace(simulator.quick_config(seed * 16 + leg), scale=scale,
                       n_requests=n_requests, arrival_rate=rate,
                       deadline=DEADLINE_S, queue_capacity=32)

    def fleet4(leg: int, rate: float, **fleet_fields):
        base = fleet.fleet_quick_config(seed * 16 + leg, n_devices=4)
        serve = replace(base.serve, scale=scale, n_requests=n_requests,
                        arrival_rate=rate, deadline=DEADLINE_S,
                        queue_capacity=32)
        return replace(base, serve=serve, **fleet_fields)

    legs = []
    for leg, (name, rate) in enumerate(
            (("s1_r005", 0.05), ("s1_r01", 0.1), ("s1_r02", 0.2))):
        legs.append((name, lambda c=single(leg, rate): simulator.run_load_test(c)))
    for leg, (name, rate) in enumerate(FLEET_RATE_LEGS, start=3):
        legs.append((name, lambda c=fleet4(leg, rate): fleet.run_fleet_test(c)))
    # Same trace as f4_r02 (leg 4), so the pair isolates the device loss.
    chaos = fleet4(4, 0.2, fault_plan=standard_fleet_plan(seed, 4))
    legs.append(("f4_chaos", lambda: fleet.run_fleet_test(chaos)))
    overload = fleet4(6, 20.0)
    legs.append(("f4_overload", lambda: fleet.run_fleet_test(overload)))
    return legs


def build_serve_fleet(seed: int, smoke: bool) -> Built:
    scale = SERVE_SCALE  # already smaller than the smoke scale
    build_s = _cold_datasets(("FK", "GS"), scale)
    ops = [Op(name=name, run=run, digest=_digest_leg, engine="Ascetic")
           for name, run in _serve_legs(seed, scale, 12 if smoke else 300)]
    # Output checks are per leg and live in the digest (one response per
    # request); nothing needs a second look across ops.
    return Built(ops, lambda records: {}, build_s)


_BUILDERS = {
    "paper_grid": build_paper_grid,
    "oom_pressure": build_oom_pressure,
    "recorded_chaos": build_recorded_chaos,
    "serve_fleet": build_serve_fleet,
}


def build(name: str, seed: int, smoke: bool = False) -> Built:
    """Set one workload up: datasets (cold), workloads, specs, fault plans."""
    return _BUILDERS[name](seed, smoke)
