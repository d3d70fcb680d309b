"""Command-line interface.

Exposes the experiment harness without writing Python::

    repro datasets                                  # Table-3 inventory
    repro run --dataset FK --algo BFS --engine Ascetic
    repro compare --dataset UK --algo PR            # every registered engine
    repro compare --dataset UK --algo PR --jobs 4   # ...in parallel
    repro sweep-ratio --dataset FK --algo CC        # Fig.-10 style sweep
    repro trace FK BFS --engine Ascetic -o run.json # Perfetto timeline
    repro grid --jobs 4                             # full 4x4x4 grid, cached
    repro chaos FK BFS --engine Subway --seed 7     # fault-injected run
    repro serve --quick -o slo.json                 # seeded SLO load test
    repro fleet --quick                             # 2-device fleet smoke
    repro fleet --requests 120                      # `serve`, 4-device defaults

Every command prints the same fixed-width reports the benchmarks produce.
``grid``, ``compare`` and ``sweep-ratio`` go through :mod:`repro.runner`:
with ``--jobs N`` independent cells fan out across worker processes, and
``grid``'s finished cells persist in an on-disk cache (default
``.repro-cache/``), so a re-run replays unchanged cells instead of
recomputing them.  Installed as
the ``repro`` console script; also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algorithms import PROGRAMS
from repro.analysis.report import format_table, human_bytes, sparkline
from repro.core.manager import RegionEngine
from repro.core.static_region import FILLS
from repro.engines import registry
from repro.gpusim.fabric import TOPOLOGIES
from repro.gpusim.memory import GPUOutOfMemory
from repro.graph.datasets import DATASETS
from repro.harness.experiments import BENCH_SCALE, make_workload, run_workload
from repro.harness.sweeps import sweep_static_ratio
from repro.runner import RunSpec, grid_specs, run_grid

__all__ = ["main", "build_parser"]

ALGOS = tuple(PROGRAMS)

#: Default on-disk cell cache for ``repro grid`` (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro-cache"

#: The paper's Tables-4/5 grid axes.
GRID_DATASETS = ("GS", "FK", "FS", "UK")
GRID_ALGOS = ("BFS", "SSSP", "CC", "PR")


def unit_ratio(text: str) -> float:
    """argparse ``type=`` for a static-region share: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def data_scale(text: str) -> float:
    """argparse ``type=`` for a dataset down-scale: a float in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 1]")
    return value


def _at_least(kind, low, strict=False):
    """argparse ``type=`` factory: ``kind(text)`` in ``[low, inf)`` — or
    ``(low, inf)`` when ``strict``."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN fails both
            raise argparse.ArgumentTypeError(
                f"{text} is not in {'(' if strict else '['}{low}, inf)")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


positive_int = _at_least(int, 1)
non_negative_int = _at_least(int, 0)
positive_float = _at_least(float, 0.0, strict=True)
non_negative_float = _at_least(float, 0.0)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` entry point."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Ascetic (ICPP'21) reproduction — out-of-GPU-memory "
        "graph processing on a simulated GPU.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table-3 dataset inventory")
    sub.add_parser("engines",
                   help="print the registered engines and their capabilities")

    engine_choices = sorted(registry.available())
    engine_help = ("engine name; `repro engines` prints each one's "
                   "capabilities and accepted options")

    def common(sp):
        sp.add_argument("--dataset", required=True, choices=sorted(DATASETS),
                        help="Table-3 dataset abbreviation")
        sp.add_argument("--algo", required=True, choices=ALGOS,
                        help="vertex program")
        sp.add_argument("--scale", type=data_scale, default=BENCH_SCALE,
                        help=f"dataset down-scale (default {BENCH_SCALE:g})")
        sp.add_argument("--memory-bytes", type=positive_int, default=None,
                        help="override the (scaled) device capacity")

    def jobs_arg(sp):
        sp.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (1 = in-process serial)")

    run_p = sub.add_parser("run", help="run one engine on one workload")
    common(run_p)
    run_p.add_argument("--engine", default="Ascetic", choices=engine_choices,
                      help=engine_help)
    run_p.add_argument("--fill", default=None, choices=FILLS,
                       help="Ascetic static-region fill policy")
    run_p.add_argument("--ratio", type=unit_ratio, default=None,
                       help="Ascetic forced static ratio (overrides Eq. 2)")
    run_p.add_argument("--no-overlap", action="store_true",
                       help="disable the §3.2 overlap (Fig. 8 ablation)")

    cmp_p = sub.add_parser("compare",
                           help="run every registered engine on one workload")
    common(cmp_p)
    jobs_arg(cmp_p)

    sw_p = sub.add_parser("sweep-ratio", help="Fig.-10-style static-ratio sweep")
    common(sw_p)
    jobs_arg(sw_p)
    sw_p.add_argument("--ratios", type=unit_ratio, nargs="+",
                      default=[0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0])

    tr_p = sub.add_parser(
        "trace",
        help="run one engine with event recording and export a "
             "Chrome/Perfetto trace",
    )
    tr_p.add_argument("dataset", choices=sorted(DATASETS),
                      help="Table-3 dataset abbreviation")
    tr_p.add_argument("algo", choices=ALGOS, help="vertex program")
    tr_p.add_argument("--engine", default="Ascetic", choices=engine_choices,
                      help=engine_help)
    tr_p.add_argument("--scale", type=data_scale, default=BENCH_SCALE,
                      help=f"dataset down-scale (default {BENCH_SCALE:g})")
    tr_p.add_argument("--memory-bytes", type=positive_int, default=None,
                      help="override the (scaled) device capacity")
    tr_p.add_argument("-o", "--output", default=None,
                      help="trace JSON path (default "
                           "<dataset>_<algo>_<engine>.trace.json)")

    g_p = sub.add_parser(
        "grid",
        help="run a datasets x algorithms x engines grid with caching",
    )
    jobs_arg(g_p)
    g_p.add_argument("--datasets", nargs="+", default=list(GRID_DATASETS),
                     choices=sorted(DATASETS), metavar="ABBR",
                     help=f"datasets (default {' '.join(GRID_DATASETS)})")
    g_p.add_argument("--algos", nargs="+", default=list(GRID_ALGOS),
                     choices=ALGOS, metavar="ALGO",
                     help=f"algorithms (default {' '.join(GRID_ALGOS)})")
    g_p.add_argument("--engines", nargs="+", default=None,
                     choices=engine_choices, metavar="ENGINE",
                     help="engines (default: every registered engine)")
    g_p.add_argument("--scale", type=data_scale, default=BENCH_SCALE,
                     help=f"dataset down-scale (default {BENCH_SCALE:g})")
    g_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    g_p.add_argument("--no-cache", action="store_true",
                     help="recompute every cell, touch no cache")
    g_p.add_argument("--timeout", type=positive_float, default=None,
                     help="per-cell wall-clock budget in seconds")
    g_p.add_argument("--retries", type=non_negative_int, default=1,
                     help="extra attempts for a failing cell (default 1)")

    def load_test_args(sp):
        sp.add_argument("--quick", action="store_true",
                        help="the tiny pinned smoke config (what CI runs)")
        sp.add_argument("--seed", type=non_negative_int, default=0,
                        help="workload-generator seed (default 0)")
        sp.add_argument("--requests", type=non_negative_int, default=24,
                        help="offered requests (default %(default)s)")
        sp.add_argument("--rate", type=positive_float, default=1.0,
                        help="arrival rate, requests per simulated second "
                             "(default %(default)s)")
        sp.add_argument("--graphs", nargs="+", default=["GS"],
                        choices=sorted(DATASETS), metavar="ABBR",
                        help="datasets requests draw from (default GS)")
        sp.add_argument("--algos", nargs="+", default=["BFS", "CC"],
                        choices=ALGOS, metavar="ALGO",
                        help="algorithms requests draw from (default BFS CC)")
        sp.add_argument("--engine", default="Ascetic", choices=engine_choices,
                        help=engine_help + " (per-device engine, and the "
                                           "inner engine of sharded dispatches)")
        sp.add_argument("--scale", type=data_scale, default=BENCH_SCALE,
                        help=f"dataset down-scale (default {BENCH_SCALE:g})")
        sp.add_argument("--tenants", nargs="+", default=["t0", "t1"],
                        metavar="NAME", help="tenant names (default t0 t1)")
        sp.add_argument("--deadline", type=positive_float, default=None,
                        help="per-request deadline budget in simulated seconds")
        sp.add_argument("--multi-source", type=positive_int, default=1,
                        help="explicit sources per BFS/SSSP request")
        sp.add_argument("--queue-capacity", type=positive_int, default=16,
                        help="admission-queue bound (default %(default)s)")
        sp.add_argument("--queue-policy", default="reject",
                        choices=("reject", "drop-oldest", "deadline"),
                        help="backpressure policy when the queue is full")
        sp.add_argument("--scheduler", default="affinity",
                        choices=("fifo", "affinity"),
                        help="dispatch order (default affinity)")
        sp.add_argument("--max-batch", type=positive_int, default=1,
                        help="fuse up to N compatible traversals per dispatch")
        sp.add_argument("--batch-wait", type=non_negative_float, default=0.0,
                        help="seconds to hold a free device for a fuller batch")
        sp.add_argument("--max-engines", type=positive_int, default=2,
                        help="warm engine-pool size per device (default 2)")
        sp.add_argument("--devices", type=positive_int, default=1,
                        help="simulated devices behind the router "
                             "(default %(default)s)")
        sp.add_argument("--topology", default="pcie",
                        choices=sorted(TOPOLOGIES),
                        help="inter-device link class (default pcie)")
        sp.add_argument("--shard-over", type=positive_float, default=None,
                        help="shard a graph fabric-wide when its edge bytes "
                             "exceed this multiple of device capacity "
                             "(default: never shard; fleet --quick pins 1.0)")
        sp.add_argument("--fabric", default=None, metavar="JSON",
                        help="explicit FabricSpec as a JSON object (overrides "
                             "--devices/--topology), e.g. "
                             "'{\"n_devices\": 2, \"topology\": \"nvlink\"}'")
        sp.add_argument("-o", "--output", default=None,
                        help="write the full JSON report (trace + SLO) here")

    load_test_args(sub.add_parser(
        "serve",
        help="run a seeded multi-tenant load test against a router over "
             "per-device engine pools (one device by default) and emit a "
             "schema-versioned SLO report",
    ))
    fl_p = sub.add_parser(
        "fleet",
        help="`serve` with multi-device defaults (4 devices, 48 requests "
             "at 2/s, queue bound 32); --quick pins a 2-device config "
             "where one graph replicates and one is sharded fabric-wide",
    )
    load_test_args(fl_p)
    fl_p.set_defaults(devices=4, requests=48, rate=2.0, queue_capacity=32)

    ch_p = sub.add_parser(
        "chaos",
        help="run one engine under the standard fault plan and check the "
             "result against the fault-free baseline",
    )
    ch_p.add_argument("dataset", choices=sorted(DATASETS),
                      help="Table-3 dataset abbreviation")
    ch_p.add_argument("algo", choices=ALGOS, help="vertex program")
    ch_p.add_argument("--engine", default="Ascetic", choices=engine_choices,
                      help=engine_help)
    ch_p.add_argument("--seed", type=int, default=0,
                      help="fault-injector seed (default 0)")
    ch_p.add_argument("--scale", type=data_scale, default=BENCH_SCALE,
                      help=f"dataset down-scale (default {BENCH_SCALE:g})")
    ch_p.add_argument("--memory-bytes", type=positive_int, default=None,
                      help="override the (scaled) device capacity")
    ch_p.add_argument("--fleet", action="store_true",
                      help="fleet chaos: kill one device mid-run under the "
                           "standard fleet plan — a sharded engine run "
                           "checked bit-identical against fault-free, plus "
                           "a fleet load test with the degraded SLO report")
    ch_p.add_argument("--devices", type=positive_int, default=4,
                      help="fabric size for --fleet, at least 2 (default 4)")
    ch_p.add_argument("-o", "--output", default=None,
                      help="with --fleet: write the degraded SLO report "
                           "JSON here")
    return p


def _cmd_datasets() -> int:
    rows = []
    for abbr, spec in DATASETS.items():
        rows.append(
            [abbr, spec.full_name, f"{spec.paper_vertices/1e6:.2f}M",
             f"{spec.paper_edges/1e9:.2f}B",
             "directed" if spec.directed else "undirected", spec.kind]
        )
    print(format_table(
        ["abbr", "name", "vertices", "edges", "direction", "kind"], rows,
        title="Table 3 — datasets (paper-scale counts; loaded scaled)",
    ))
    return 0


def _cmd_engines() -> int:
    rows = []
    for name in registry.available():
        cls = registry.get(name)
        opts = registry.options(name)
        rows.append([
            name,
            "yes" if issubclass(cls, RegionEngine) else "no",
            "any" if opts is None else ", ".join(opts) or "-",
            (cls.__doc__ or "-").strip().splitlines()[0],
        ])
    print(format_table(
        ["engine", "warm-start", "engine opts", "summary"], rows,
        title="Registered engines",
    ))
    return 0


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    flags = (("--fill", args.fill, {"fill": args.fill}),
             ("--ratio", args.ratio is not None,
              {"forced_ratio": args.ratio, "adaptive": False}),
             ("--no-overlap", args.no_overlap, {"overlap": False}))
    accepted = registry.options(args.engine)
    kwargs = {}
    for flag, given, opts in flags:
        if not given:
            continue
        if accepted is not None and not set(opts) <= set(accepted):
            # A flag the engine would ignore is a silently wrong cell.
            parser.error(f"{flag} configures the Ascetic engine; "
                         f"--engine {args.engine} has no such option")
        kwargs.update(opts)
    w = make_workload(args.dataset, args.algo, scale=args.scale,
                      memory_bytes=args.memory_bytes)
    res = run_workload(w, args.engine, **kwargs)
    print(res.summary())
    rows = [[k, f"{v:.4g}"] for k, v in sorted(res.extra.items())]
    rows += [[k, f"{v:.4g}"] for k, v in sorted(res.metrics.as_dict().items())]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_compare(args) -> int:
    specs = [
        RunSpec(dataset=args.dataset, algorithm=args.algo, engine=name,
                scale=args.scale, memory_bytes=args.memory_bytes)
        for name in registry.available()
    ]
    # Cells are deterministic: a retry would only repeat a failure.
    report = run_grid(specs, jobs=args.jobs, retries=0)
    for cell in report.cells:
        if not cell.ok:
            print(f"error: {cell.spec.label()}: {cell.error}", file=sys.stderr)
    results = {c.spec.engine: c.result for c in report.cells if c.ok}
    if results:
        best = min(r.elapsed_seconds for r in results.values())
        rows = [
            [name, f"{r.elapsed_seconds:.2f}s",
             f"{r.elapsed_seconds / best:.2f}x",
             human_bytes(r.metrics.bytes_h2d), f"{r.gpu_idle_fraction:.0%}",
             r.iterations]
            for name, r in results.items()
        ]
        print(format_table(
            ["engine", "time", "vs best", "H2D", "GPU idle", "iters"], rows,
            title=f"{args.algo} on {args.dataset} (scale {args.scale:g})",
        ))
    return 0 if report.n_failed == 0 else 1


def _cmd_sweep_ratio(args) -> int:
    w = make_workload(args.dataset, args.algo, scale=args.scale,
                      memory_bytes=args.memory_bytes)
    points, subway_s, eq2 = sweep_static_ratio(w, args.ratios, jobs=args.jobs)
    rows = [
        [f"{p.ratio:.2f}", f"{p.total_seconds:.2f}s", f"{p.t_sr:.2f}",
         f"{p.t_filling:.2f}", f"{p.t_transfer:.2f}", f"{p.t_ondemand:.2f}"]
        for p in points
    ]
    print(format_table(
        ["ratio", "total", "Tsr", "Tfilling", "Ttransfer", "Tondemand"], rows,
        title=f"Static-ratio sweep — {args.algo} on {args.dataset}",
    ))
    print("\ntotal over ratio:", sparkline([p.total_seconds for p in points],
                                           width=len(points)))
    print(f"Subway baseline: {subway_s:.2f}s   Eq. 2 pick: {eq2:.2f}")
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.traces import save_chrome_trace
    from repro.gpusim.events import validate_log

    w = make_workload(args.dataset, args.algo, scale=args.scale,
                      memory_bytes=args.memory_bytes)
    res = run_workload(w, args.engine, record_events=True)
    # The exported trace is only worth looking at if the log is coherent.
    validate_log(res.event_log, metrics=res.metrics,
                 horizon=res.elapsed_seconds)
    out = args.output or f"{args.dataset}_{args.algo}_{args.engine}.trace.json"
    path = save_chrome_trace(out, res)
    print(res.summary())
    print(f"wrote {len(res.event_log.events)} events to {path} "
          "(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_chaos(args, parser) -> int:
    import hashlib
    import json

    import numpy as np

    from repro.gpusim.events import validate_log
    from repro.gpusim.faults import standard_plan
    from repro.harness.persistence import result_to_payload

    if args.fleet:
        if args.devices < 2:
            # A device loss needs a survivor to recover onto.
            parser.error(f"argument --devices: {args.devices} is not in "
                         f"[2, inf) with --fleet")
        return _cmd_chaos_fleet(args)
    w = make_workload(args.dataset, args.algo, scale=args.scale,
                      memory_bytes=args.memory_bytes)
    baseline = run_workload(w, args.engine)
    chaos = run_workload(w, args.engine, record_events=True,
                         fault_plan=standard_plan(), seed=args.seed)
    validate_log(chaos.event_log, metrics=chaos.metrics,
                 horizon=chaos.elapsed_seconds)
    print(chaos.summary())
    rows = [[k, f"{v:g}"] for k, v in sorted(chaos.extra.items())
            if k.startswith("fault_")]
    rows += [
        ["transfer_retries", f"{chaos.metrics.transfer_retries:g}"],
        ["kernel_aborts", f"{chaos.metrics.kernel_aborts:g}"],
        ["retry_seconds", f"{chaos.metrics.retry_seconds:.4g}"],
        ["slowdown vs fault-free",
         f"{chaos.elapsed_seconds / baseline.elapsed_seconds:.2f}x"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"Chaos — {args.engine} on "
                             f"{args.dataset}/{args.algo}, seed {args.seed}"))
    blob = json.dumps(result_to_payload(chaos), sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    print(f"digest: {digest}")
    if not np.array_equal(chaos.values, baseline.values):
        print("error: chaos run diverged from the fault-free baseline",
              file=sys.stderr)
        return 1
    print("values identical to fault-free baseline")
    return 0


def _cmd_chaos_fleet(args) -> int:
    """``repro chaos --fleet``: device loss under the standard fleet plan.

    Two legs, both against fault-free baselines:

    1. **engine** — an N-device sharded run with one device killed halfway
       (plus a peer-link degradation window); the recovered run's values
       must be bit-identical to the fault-free run or the command exits
       nonzero.
    2. **serve** — the quick fleet load test under the same plan; prints
       the ``degraded`` SLO section and the run digest (what CI's
       fleet-chaos-smoke diffs across two runs).
    """
    import hashlib
    import json
    from dataclasses import replace

    import numpy as np

    from repro.gpusim.events import validate_log
    from repro.gpusim.faults import standard_fleet_plan
    from repro.harness.persistence import result_to_payload
    from repro.serve.fleet import fleet_quick_config, run_fleet_test

    # --- engine leg: kill one device mid-run, demand bit-identity -------
    w = make_workload(args.dataset, args.algo, scale=args.scale,
                      memory_bytes=args.memory_bytes)
    baseline = run_workload(w, "Sharded", devices=args.devices,
                            inner=args.engine)
    half = baseline.elapsed_seconds / 2
    plan = standard_fleet_plan(
        seed=args.seed, n_devices=args.devices, down_at=half,
        degrade_start=baseline.elapsed_seconds * 0.6,
        degrade_end=baseline.elapsed_seconds * 0.8,
    )
    chaos = run_workload(w, "Sharded", devices=args.devices,
                         inner=args.engine, record_events=True,
                         fault_plan=plan, seed=args.seed)
    validate_log(chaos.event_log, metrics=chaos.metrics,
                 horizon=chaos.elapsed_seconds)
    rows = [[k, f"{v:g}"] for k, v in sorted(chaos.extra.items())
            if k.startswith("fault_") or k == "device_losses"]
    rows += [["slowdown vs fault-free",
              f"{chaos.elapsed_seconds / baseline.elapsed_seconds:.2f}x"]]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"Fleet chaos — {args.devices}x Sharded[{args.engine}] on "
              f"{args.dataset}/{args.algo}, device "
              f"{args.seed % args.devices} down at t={half:.2f}s"))
    blob = json.dumps(result_to_payload(chaos), sort_keys=True,
                      separators=(",", ":"))
    print(f"digest: {hashlib.sha256(blob.encode()).hexdigest()[:16]}")
    if not np.array_equal(chaos.values, baseline.values):
        print("error: recovered run diverged from the fault-free baseline",
              file=sys.stderr)
        return 1
    print("values identical to fault-free baseline")

    # --- serve leg: the quick fleet load test under the same plan -------
    config = replace(
        fleet_quick_config(seed=args.seed, n_devices=args.devices),
        fault_plan=standard_fleet_plan(seed=args.seed,
                                       n_devices=args.devices),
    )
    res = run_fleet_test(config)
    report = res.report
    degraded = report.get("degraded", {})
    deg_rows = [
        ["schema", report["schema"]],
        ["degraded seconds", f"{degraded.get('degraded_seconds', 0.0):.2f}"],
        ["retried requests", f"{degraded.get('retried_requests', 0):g}"],
        ["relocated requests",
         f"{degraded.get('relocated_requests', 0):g}"],
        ["goodput under failure",
         f"{degraded.get('goodput_under_failure', 0.0):.4g}/s"],
        ["goodput overall", f"{report['goodput_per_second']:.4g}/s"],
    ]
    for name, d in degraded.get("devices", {}).items():
        deg_rows.append([f"device {name} downtime",
                         f"{d['downtime_seconds']:.2f}s "
                         f"({d['dispatch_failures']:g} failed dispatches)"])
    print(format_table(["quantity", "value"], deg_rows,
                       title="fleet load test under standard_fleet_plan"))
    if args.output:
        _write_load_test(res, args.output)
    print(f"digest: {res.run_digest()}")
    return 0


def _fabric_from_args(args):
    """A :class:`FabricSpec` from ``--fabric`` JSON or ``--devices`` /
    ``--topology``, turning malformed input into a friendly ``SystemExit``
    that names the offending key instead of a raw traceback."""
    import json

    from repro.gpusim.fabric import FabricSpec

    if args.fabric:
        try:
            data = json.loads(args.fabric)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: --fabric is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise SystemExit(
                "error: --fabric must be a JSON object of FabricSpec "
                "fields (n_devices, topology, device_mems, ...)"
            )
        try:
            return FabricSpec.from_dict(data)
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"error: invalid --fabric: {exc}")
    try:
        return FabricSpec(n_devices=args.devices, topology=args.topology)
    except ValueError as exc:
        raise SystemExit(f"error: invalid fabric: {exc}")


def _write_load_test(res, path: str) -> None:
    import json

    payload = res.trace_payload()
    payload["digest"] = res.run_digest()
    payload["pool"] = res.pool_stats.as_dict()
    payload["device_pools"] = {
        str(d): stats.as_dict()
        for d, stats in sorted(res.device_pool_stats.items())
    }
    payload["tenant_accounts"] = {
        name: acct.as_dict() for name, acct in sorted(res.tenants.items())
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


def _print_load_test(res, write_to: Optional[str]) -> int:
    config = res.config
    serve = config.serve
    report = res.report
    rows = [[k, f"{v:g}"] for k, v in sorted(report["counts"].items())]
    rows += [
        ["shed_rate", f"{report['shed_rate']:.2%}"],
        ["throughput/s", f"{report['throughput_per_second']:.4g}"],
        ["goodput/s", f"{report['goodput_per_second']:.4g}"],
        ["warm hits/misses",
         f"{report['warm']['hits']}/{report['warm']['misses']}"],
        ["skipped fill", human_bytes(res.pool_stats.skipped_fill_bytes)],
        ["refilled", human_bytes(res.pool_stats.refill_bytes)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"fleet — {config.fabric.n_devices}x {serve.engine} over "
              f"{config.fabric.topology}, {serve.scheduler} scheduler, "
              f"seed {serve.seed} ({res.horizon:.1f}s simulated)",
    ))
    lat = report["latency_seconds"]
    lat_rows = [
        [split, f"{lat[split]['p50']:.3f}", f"{lat[split]['p95']:.3f}",
         f"{lat[split]['p99']:.3f}", f"{lat[split]['mean']:.3f}"]
        for split in ("queue", "service", "e2e")
    ]
    print(format_table(["latency (s)", "p50", "p95", "p99", "mean"], lat_rows))
    fleet = report["fleet"]
    dev_rows = [
        [name, f"{d['dispatches']:g}", f"{d['requests']:g}",
         f"{d['busy_seconds']:.2f}s", f"{d['utilization']:.0%}",
         human_bytes(d["exchange_bytes"])]
        for name, d in fleet["devices"].items()
    ]
    if dev_rows:
        print(format_table(
            ["device", "dispatches", "requests", "busy", "util", "exchange"],
            dev_rows,
            title=f"per-device utilization — "
                  f"{fleet['sharded_dispatches']:g} of "
                  f"{fleet['n_dispatches']:g} dispatches fabric-wide",
        ))
    if write_to:
        _write_load_test(res, write_to)
    print(f"digest: {res.run_digest()}")
    return 0


def _cmd_serve(args) -> int:
    """``repro serve`` and ``repro fleet``: one command, two sets of defaults."""
    from repro.serve import (
        FleetConfig,
        ServeConfig,
        fleet_quick_config,
        quick_config,
        run_fleet_test,
    )

    fabric = _fabric_from_args(args)  # validated even when --quick pins it
    if args.quick and args.command == "fleet":
        # Pins the whole config: two devices over PCIe, GS replicated, FK
        # sharded fabric-wide.
        config = fleet_quick_config(seed=args.seed)
    else:
        serve = quick_config(seed=args.seed) if args.quick else ServeConfig(
            seed=args.seed,
            n_requests=args.requests,
            arrival_rate=args.rate,
            graphs=tuple(args.graphs),
            algorithms=tuple(a.upper() for a in args.algos),
            tenants=tuple(args.tenants),
            deadline=args.deadline,
            multi_source=args.multi_source,
            engine=args.engine,
            scale=args.scale,
            queue_capacity=args.queue_capacity,
            queue_policy=args.queue_policy,
            scheduler=args.scheduler,
            max_batch=args.max_batch,
            batch_wait=args.batch_wait,
            max_engines=args.max_engines,
        )
        config = FleetConfig(serve=serve, fabric=fabric,
                             shard_over=args.shard_over)
    return _print_load_test(run_fleet_test(config), args.output)


def _cmd_grid(args) -> int:
    engines = tuple(args.engines) if args.engines else registry.available()
    specs = grid_specs(args.datasets, args.algos, engines, scale=args.scale)
    cache = None if args.no_cache else args.cache_dir
    report = run_grid(specs, jobs=args.jobs, cache=cache,
                      timeout=args.timeout, retries=args.retries)
    rows = []
    for cell in report.cells:
        r = cell.result
        rows.append([
            cell.spec.dataset, cell.spec.algorithm, cell.spec.engine,
            cell.status,
            f"{r.elapsed_seconds:.2f}s" if r else "-",
            human_bytes(r.metrics.bytes_h2d) if r else "-",
            r.iterations if r else "-",
        ])
    print(format_table(
        ["dataset", "algo", "engine", "status", "time", "H2D", "iters"], rows,
        title=f"Grid — {len(args.datasets)} dataset(s) x {len(args.algos)} "
              f"algorithm(s) x {len(engines)} engine(s), scale {args.scale:g}",
    ))
    for cell in report.cells:
        if not cell.ok:
            print(f"failed: {cell.spec.label()}: {cell.error}", file=sys.stderr)
    print()
    print(report.summary())
    return 0 if report.n_failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse ``argv`` (default ``sys.argv[1:]``) and dispatch."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "engines":
            return _cmd_engines()
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep-ratio":
            return _cmd_sweep_ratio(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "chaos":
            return _cmd_chaos(args, parser)
        if args.command in ("serve", "fleet"):
            return _cmd_serve(args)
    except GPUOutOfMemory as exc:
        # The workload does not fit the device it was given: a fact about
        # the input, reported the way ``grid`` reports it per cell.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
