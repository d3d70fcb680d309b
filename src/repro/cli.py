"""Command-line interface.

Exposes the experiment harness without writing Python::

    repro datasets                                  # Table-3 inventory
    repro engines                                   # engines and their options
    repro run --dataset FK --algo BFS --engine Ascetic
    repro trace FK BFS --engine Ascetic -o run.json # Perfetto timeline
    repro grid --jobs 4                             # 4x4 workloads x 6 engines
    repro grid --datasets UK --algos PR             # every engine, one workload
    repro chaos FK BFS --engine Subway --seed 7     # fault-injected run
    repro serve --quick -o slo.json                 # seeded SLO load test
    repro fleet --quick                             # 2-device fleet smoke
    repro fleet --requests 120                      # `serve`, 4-device defaults

Every command prints the same fixed-width reports the benchmarks produce.
``grid`` goes through :mod:`repro.runner`: with ``--jobs N`` independent
cells fan out across worker processes, and finished cells persist in an
on-disk cache (default ``.repro-cache/``), so a re-run replays unchanged
cells instead of recomputing them.  Installed as the ``repro`` console
script; also runnable as ``python -m repro.cli``.

Each flag is written once, in one table; a ``serve`` / ``fleet`` flag fills
the config field it is keyed by and takes that field's default.  A flag the
run would not read (one ``--quick`` pins) is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace
from typing import List, Optional

import numpy as np

from repro.algorithms import PROGRAMS
from repro.analysis.report import format_table, human_bytes
from repro.analysis.traces import save_chrome_trace
from repro.core.manager import RegionEngine
from repro.core.static_region import FILLS
from repro.engines import registry
from repro.gpusim.events import validate_log
from repro.gpusim.fabric import TOPOLOGIES, FabricSpec
from repro.gpusim.faults import standard_fleet_plan, standard_plan
from repro.gpusim.memory import GPUOutOfMemory
from repro.graph.datasets import DATASETS
from repro.harness.experiments import BENCH_SCALE, make_workload, run_workload
from repro.harness.persistence import result_to_payload
from repro.runner import grid_specs, run_grid
from repro.serve import (QUEUE_POLICIES, FleetConfig, ServeConfig,
                         fleet_quick_config, quick_config, report_digest,
                         run_fleet_test)
from repro.serve.scheduler import SCHEDULERS

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

#: ``repro fleet``'s defaults where they differ from the config fields'.
FLEET_DEFAULTS = {"n_devices": 4, "n_requests": 48, "arrival_rate": 2.0,
                  "queue_capacity": 32}

#: What ``--quick`` leaves to the command line; it pins every other flag.
QUICK_KEEPS = {
    "serve": {"seed", "n_devices", "topology", "shard_over", "output"},
    "fleet": {"seed", "output"},
}


class _Store(argparse.Action):
    """argparse's ``store`` that also notes the flag on ``given``, so a
    command can refuse a flag its mode would not read."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self,)


def _refuse(parser, args, unread, why: str) -> None:
    """Usage error naming the first flag given whose dest ``unread(dest)``."""
    for action in getattr(args, "given", ()):
        if unread(action.dest):
            parser.error(f"argument {'/'.join(action.option_strings)}: {why}")


def _config_defaults(command: str) -> dict:
    """Each config field's default, under ``command``'s own on top."""
    out = {f.name: f.default for cls in (ServeConfig, FleetConfig, FabricSpec)
           for f in fields(cls) if f.default is not MISSING}
    return {**out, **FLEET_DEFAULTS} if command == "fleet" else out


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` entry point."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Ascetic (ICPP'21) reproduction — out-of-GPU-memory "
        "graph processing on a simulated GPU.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # Flags by dest: spelling, parse type (the choices, for a choice), help.
    # Read here, not at import: the engine registry is live.
    engines = sorted(registry.available())
    shared = {
        "dataset": ("dataset", sorted(DATASETS), "Table-3 dataset abbreviation"),
        "algo": ("algo", ALGOS, "vertex program"),
        "engine": ("--engine", engines, "engine name (serve/fleet: each "
                   "device's, and inside sharded dispatches; chaos --fleet: "
                   "inside Sharded); `repro engines` prints each one's "
                   "capabilities and accepted options"),
        "scale": ("--scale", data_scale, "dataset down-scale"),
        "memory_bytes": ("--memory-bytes", positive_int,
                         "override the (scaled) device capacity"),
        "jobs": ("--jobs", positive_int,
                 "worker processes (1 = in-process serial)"),
        "seed": ("--seed", non_negative_int, "seed of chaos's fault injector, "
                 "or of serve/fleet's workload generator"),
        "n_devices": ("--devices", positive_int, "simulated devices: behind "
                      "serve/fleet's router, or chaos --fleet's fabric (at "
                      "least 2)"),
        "output": ("-o --output", str, "JSON output: trace's Chrome trace "
                   "(default <dataset>_<algo>_<engine>.trace.json), "
                   "serve/fleet's full report (trace + SLO), chaos --fleet's "
                   "degraded SLO report"),
    }
    shared_defaults = {"engine": "Ascetic", "scale": BENCH_SCALE, "jobs": 1,
                       "seed": 0}
    # serve/fleet's own: a config field each (the default is the field's).
    load_test = {
        "n_requests": ("--requests", non_negative_int, "offered requests"),
        "arrival_rate": ("--rate", positive_float,
                         "arrival rate, requests per simulated second"),
        "graphs": ("--graphs", sorted(DATASETS), "datasets requests draw from"),
        "algorithms": ("--algos", ALGOS, "algorithms requests draw from"),
        "tenants": ("--tenants", str, "tenant names"),
        "deadline": ("--deadline", positive_float,
                     "per-request deadline budget in simulated seconds"),
        "multi_source": ("--multi-source", positive_int,
                         "explicit sources per BFS/SSSP request"),
        "queue_capacity": ("--queue-capacity", positive_int,
                           "admission-queue bound"),
        "queue_policy": ("--queue-policy", QUEUE_POLICIES,
                         "backpressure policy when the queue is full"),
        "scheduler": ("--scheduler", SCHEDULERS, "dispatch order"),
        "max_batch": ("--max-batch", positive_int,
                      "fuse up to N compatible traversals per dispatch"),
        "batch_wait": ("--batch-wait", non_negative_float,
                       "seconds to hold a free device for a fuller batch"),
        "max_engines": ("--max-engines", positive_int,
                        "warm engine-pool size per device"),
        "topology": ("--topology", sorted(TOPOLOGIES), "inter-device link class"),
        "shard_over": ("--shard-over", positive_float, "shard a graph "
                       "fabric-wide when its edge bytes exceed this multiple "
                       "of device capacity (default: never shard; fleet "
                       "--quick pins 1.0)"),
    }
    table = {**shared, **load_test}

    def command(name, handler, summary, *dests, **defaults):
        """A subcommand taking the named table flags (``--dataset``: the
        positional as a required option), ``defaults`` over the table's.
        The parent is per subcommand: argparse hands a parent's actions to
        its children, so a shared one would share their defaults."""
        parent = argparse.ArgumentParser(add_help=False)
        for key in dests:
            dest = key.lstrip("-")
            spelling, kind, text = table[dest]
            default = {**shared_defaults, **defaults}.get(dest)
            names = [key] if key != dest else spelling.split()
            kw = {"type": kind} if callable(kind) else {"choices": kind}
            if isinstance(default, tuple):
                kw.update(nargs="+", metavar=names[-1].lstrip("-").upper())
            if names[0].startswith("-"):
                kw.update(dest=dest, required=key != dest)
            if default is not None:
                shown = " ".join(default) if "nargs" in kw else default
                text += f" (default {shown})"
            parent.add_argument(*names, action=_Store, default=default,
                                help=text, **kw)
        sp = sub.add_parser(name, help=summary, parents=[parent])
        sp.set_defaults(handler=handler)
        return sp

    command("datasets", _cmd_datasets, "print the Table-3 dataset inventory")
    command("engines", _cmd_engines,
            "print the registered engines and their capabilities")

    run_p = command("run", _cmd_run, "run one engine on one workload",
                    "--dataset", "--algo", "scale", "memory_bytes", "engine")
    run_p.add_argument("--fill", default=None, choices=FILLS,
                       help="Ascetic static-region fill policy")
    run_p.add_argument("--ratio", type=unit_ratio, default=None,
                       help="Ascetic forced static ratio (overrides Eq. 2)")
    run_p.add_argument("--no-overlap", action="store_true",
                       help="disable the §3.2 overlap (Fig. 8 ablation)")

    command("trace", _cmd_trace,
            "run one engine with event recording and export a "
            "Chrome/Perfetto trace",
            "dataset", "algo", "engine", "scale", "memory_bytes", "output")

    g_p = command("grid", _cmd_grid,
                  "run a datasets x algorithms x engines grid with caching",
                  "jobs", "scale")
    g_p.add_argument("--datasets", nargs="+", default=list(GRID_DATASETS),
                     choices=sorted(DATASETS), metavar="ABBR",
                     help=f"datasets (default {' '.join(GRID_DATASETS)})")
    g_p.add_argument("--algos", nargs="+", default=list(GRID_ALGOS),
                     choices=ALGOS, metavar="ALGO",
                     help=f"algorithms (default {' '.join(GRID_ALGOS)})")
    g_p.add_argument("--engines", nargs="+", default=None,
                     choices=engines, metavar="ENGINE",
                     help="engines (default: every registered engine)")
    g_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    g_p.add_argument("--no-cache", action="store_true",
                     help="recompute every cell, touch no cache")
    g_p.add_argument("--timeout", type=positive_float, default=None,
                     help="per-cell wall-clock budget in seconds")
    g_p.add_argument("--retries", type=non_negative_int, default=1,
                     help="extra attempts for a failing cell (default 1)")

    for name, text in (
        ("serve", "run a seeded multi-tenant load test against a router over "
                  "per-device engine pools (one device by default) and emit "
                  "a schema-versioned SLO report"),
        ("fleet", "`serve` with multi-device defaults ({n_devices} devices, "
                  "{n_requests} requests at {arrival_rate:g}/s, queue bound "
                  "{queue_capacity}); --quick pins a 2-device config where "
                  "one graph replicates and one is sharded fabric-wide"
                  .format(**FLEET_DEFAULTS)),
    ):
        sp = command(name, _cmd_serve, text, "seed", "engine", "scale",
                     "n_devices", "output", *load_test,
                     **_config_defaults(name))
        sp.add_argument("--quick", action="store_true",
                        help="the tiny pinned smoke config (what CI runs); "
                             "refuses the flags it pins")

    ch_p = command("chaos", _cmd_chaos,
                   "run one engine under the standard fault plan and check "
                   "the result against the fault-free baseline",
                   "dataset", "algo", "engine", "seed", "scale",
                   "memory_bytes", "n_devices", "output", n_devices=4)
    ch_p.add_argument("--fleet", action="store_true",
                      help="fleet chaos: kill one device mid-run under the "
                           "standard fleet plan — a sharded engine run "
                           "checked bit-identical against fault-free, plus "
                           "a fleet load test with the degraded SLO report")
    return p


def _workload(args):
    return make_workload(args.dataset, args.algo, scale=args.scale,
                         memory_bytes=args.memory_bytes)


def _cmd_datasets(args, parser) -> int:
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


def _cmd_engines(args, parser) -> int:
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


def _cmd_run(args, parser) -> int:
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
    res = run_workload(_workload(args), args.engine, **kwargs)
    print(res.summary())
    rows = [[k, f"{v:.4g}"] for k, v in sorted(res.extra.items())]
    rows += [[k, f"{v:.4g}"] for k, v in sorted(res.metrics.as_dict().items())]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_trace(args, parser) -> int:
    res = run_workload(_workload(args), args.engine, record_events=True)
    # The exported trace is only worth looking at if the log is coherent.
    validate_log(res.event_log, metrics=res.metrics,
                 horizon=res.elapsed_seconds)
    out = args.output or f"{args.dataset}_{args.algo}_{args.engine}.trace.json"
    path = save_chrome_trace(out, res)
    print(res.summary())
    print(f"wrote {len(res.event_log.events)} events to {path} "
          "(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _check_chaos(chaos, baseline, rows, title: str, run: str) -> int:
    """One chaos leg: validate the log, print the fault table and digest,
    and exit 1 unless the values equal the fault-free baseline's."""
    validate_log(chaos.event_log, metrics=chaos.metrics,
                 horizon=chaos.elapsed_seconds)
    rows.append(["slowdown vs fault-free",
                 f"{chaos.elapsed_seconds / baseline.elapsed_seconds:.2f}x"])
    print(format_table(["quantity", "value"], rows, title=title))
    print(f"digest: {report_digest(result_to_payload(chaos))}")
    if not np.array_equal(chaos.values, baseline.values):
        print(f"error: {run} diverged from the fault-free baseline",
              file=sys.stderr)
        return 1
    print("values identical to fault-free baseline")
    return 0


def _cmd_chaos(args, parser) -> int:
    if args.fleet:
        if args.n_devices < 2:
            # A device loss needs a survivor to recover onto.
            parser.error(f"argument --devices: {args.n_devices} is not in "
                         f"[2, inf) with --fleet")
        return _cmd_chaos_fleet(args)
    _refuse(parser, args, {"n_devices", "output"}.__contains__,
            "only chaos --fleet reads it")
    w = _workload(args)
    baseline = run_workload(w, args.engine)
    chaos = run_workload(w, args.engine, record_events=True,
                         fault_plan=standard_plan(), seed=args.seed)
    print(chaos.summary())
    rows = [[k, f"{v:g}"] for k, v in sorted(chaos.extra.items())
            if k.startswith("fault_")]
    rows += [
        ["transfer_retries", f"{chaos.metrics.transfer_retries:g}"],
        ["kernel_aborts", f"{chaos.metrics.kernel_aborts:g}"],
        ["retry_seconds", f"{chaos.metrics.retry_seconds:.4g}"],
    ]
    return _check_chaos(chaos, baseline, rows,
                        f"Chaos — {args.engine} on {args.dataset}/{args.algo}, "
                        f"seed {args.seed}", "chaos run")


def _cmd_chaos_fleet(args) -> int:
    """``repro chaos --fleet``: an N-device sharded run with one device
    killed halfway (plus a peer-link degradation window), held bit-identical
    to fault-free; then the quick fleet load test under the same plan, with
    its ``degraded`` SLO section and run digest."""
    # --- engine leg: kill one device mid-run, demand bit-identity -------
    n = args.n_devices
    w = _workload(args)
    baseline = run_workload(w, "Sharded", devices=n, inner=args.engine)
    half = baseline.elapsed_seconds / 2
    plan = standard_fleet_plan(
        seed=args.seed, n_devices=n, down_at=half,
        degrade_start=baseline.elapsed_seconds * 0.6,
        degrade_end=baseline.elapsed_seconds * 0.8,
    )
    chaos = run_workload(w, "Sharded", devices=n, inner=args.engine,
                         record_events=True, fault_plan=plan, seed=args.seed)
    rows = [[k, f"{v:g}"] for k, v in sorted(chaos.extra.items())
            if k.startswith("fault_") or k == "device_losses"]
    if _check_chaos(chaos, baseline, rows,
                    f"Fleet chaos — {n}x Sharded[{args.engine}] on "
                    f"{args.dataset}/{args.algo}, device {args.seed % n} "
                    f"down at t={half:.2f}s", "recovered run"):
        return 1

    # --- serve leg: the quick fleet load test under the same plan -------
    config = replace(
        fleet_quick_config(seed=args.seed, n_devices=n),
        fault_plan=standard_fleet_plan(seed=args.seed, n_devices=n),
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
    return _write_load_test(res, args.output)


def _write_load_test(res, path: Optional[str]) -> int:
    """Write the full JSON report to ``path``, if given; print the digest."""
    if path:
        payload = {**res.trace_payload(), "digest": res.run_digest(),
                   "pool": res.pool_stats.as_dict()}
        payload["device_pools"] = {str(d): stats.as_dict() for d, stats
                                   in sorted(res.device_pool_stats.items())}
        payload["tenant_accounts"] = {name: acct.as_dict() for name, acct
                                      in sorted(res.tenants.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {path}")
    print(f"digest: {res.run_digest()}")
    return 0


def _print_load_test(res, write_to: Optional[str]) -> int:
    serve, fabric, report = res.config.serve, res.config.fabric, res.report
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
        title=f"fleet — {fabric.n_devices}x {serve.engine} over "
              f"{fabric.topology}, {serve.scheduler} scheduler, "
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
    return _write_load_test(res, write_to)


def _cmd_serve(args, parser) -> int:
    """``repro serve`` and ``repro fleet``: one command, two sets of defaults.

    ``--quick`` pins a config and refuses the flags it pins.  The configs
    check their own fields; a value they refuse is a usage error, reported
    like the flag types' own checks.
    """
    if args.quick:
        _refuse(parser, args, lambda dest: dest not in QUICK_KEEPS[args.command],
                "--quick pins it")
    if args.quick and args.command == "fleet":
        # Pins the whole config: two devices over PCIe, GS replicated, FK
        # sharded fabric-wide.
        config = fleet_quick_config(seed=args.seed)
    else:
        # Every flag here is type- or choice-checked already.
        fabric = FabricSpec(n_devices=args.n_devices, topology=args.topology)
        names = {f.name for f in fields(ServeConfig)}
        try:
            serve = quick_config(seed=args.seed) if args.quick else ServeConfig(
                **{k: tuple(v) if isinstance(v, list) else v
                   for k, v in vars(args).items() if k in names})
            config = FleetConfig(serve=serve, fabric=fabric,
                                 shard_over=args.shard_over)
        except ValueError as exc:
            parser.error(str(exc))
    return _print_load_test(run_fleet_test(config), args.output)


def _cmd_grid(args, parser) -> int:
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
    """Entry point: parse ``argv`` (default ``sys.argv[1:]``), dispatch."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except GPUOutOfMemory as exc:
        # The workload does not fit the device it was given: a fact about
        # the input, reported the way ``grid`` reports it per cell.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
