"""Guard: every option on the surface is set by something that is measured,
and every ``serve`` / ``fleet`` flag fills a config field.

An engine option (a keyword of the engine's constructor beyond ``Engine``'s
own, read from its signature) or a ``GPUSpec`` field stays while a file under
``benchmarks/``, ``bench_e2e/`` or ``src/`` other than its defining module
passes it, by keyword or ``engine_opts`` dict key, in a call of its owner's
class or copy helper or one that names the engine — tests and the registry are
not callers (ROADMAP item 7).  The unreached set must *equal* ``DEFERRED``: an option nobody sets
fails, and so does a deferred one once reached, so the list can only shrink.

The CLI half (item 7): a ``serve`` / ``fleet`` flag's dest is the
``ServeConfig``, ``FleetConfig`` or ``FabricSpec`` field it fills, or a
``CLI_ONLY`` entry that says why it fills none; ``CLI_ONLY`` must equal the
unmatched set the same way.

The function half (item 12): every module-level function and method under
``src/repro`` is either in ``ci/reach.txt`` — run by a workload, a figure,
an example or a CI command (``python ci/reach.py`` rewrites it) — or an
``UNREACHED`` key whose value is one of ``REASONS``.  ``UNREACHED`` must
equal the unreached set, like ``DEFERRED``.
"""

import argparse
import ast
import importlib.util
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

from repro.cli import build_parser
from repro.engines import registry
from repro.gpusim.device import GPUSpec
from repro.gpusim.fabric import FabricSpec
from repro.serve import FleetConfig, ServeConfig

REPO = Path(__file__).resolve().parent.parent
UVM_MODEL = ("page_size", "fault_latency", "fault_batch", "migration_bandwidth",
             "kernel_penalty", "prefetch_pages")
DEFERRED = {
    **{f"GPUSpec.uvm_{name}": "ROADMAP item 4c (UVM calibration sweep)"
       for name in UVM_MODEL},
    **{f"Hybrid.{name}": "ROADMAP item 4e (Hybrid itself is on trial)"
       for name in ("chunk_bytes", "cache_fraction", "reuse_horizon")},
}


def surface():
    """``{"Owner.option": (defining file, names a call that sets it goes by)}``."""
    owners = [(name, registry.get(name), {name}, registry.options(name))
              for name in registry.available()]
    owners.append(("GPUSpec", GPUSpec, {"replace"},
                   [f.name for f in fields(GPUSpec)]))
    return {f"{owner}.{option}": (inspect.getsourcefile(cls), via | {cls.__name__})
            for owner, cls, via, options in owners for option in options}


def keyword_uses():
    """``(file, tag, keyword)`` per call keyword; a call's tags are its
    callee's name and its string-literal arguments."""
    for root in ("benchmarks", "bench_e2e", "src"):
        for path in sorted((REPO / root).rglob("*.py")):
            calls = (n for n in ast.walk(ast.parse(path.read_text()))
                     if isinstance(n, ast.Call))
            for call in calls:
                args = call.args + [kw.value for kw in call.keywords]
                tags = {getattr(call.func, "attr", getattr(call.func, "id", None))}
                tags |= {a.value for a in args if isinstance(a, ast.Constant)}
                names = [kw.arg for kw in call.keywords]
                names += [k.value for a in args if isinstance(a, ast.Dict)
                          for k in a.keys if isinstance(k, ast.Constant)]
                yield from ((str(path), tag, n) for tag in tags for n in names)


def test_every_option_is_set_by_a_measured_caller_or_deferred():
    uses = set(keyword_uses())
    unreached = {
        key for key, (home, via) in surface().items()
        if not any(path != home and tag in via and name == key.split(".")[1]
                   for path, tag, name in uses)}
    assert unreached == set(DEFERRED)


CLI_ONLY = {
    "quick": "swaps the whole config for quick_config / fleet_quick_config",
    "output": "where the report is written, not what is run",
}


def load_test_actions(command):
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)]


def test_every_load_test_flag_fills_a_config_field_or_says_why_not():
    # FleetConfig's ``serve`` and ``fabric`` hold the other two configs.
    config_fields = {f.name for cls in (ServeConfig, FabricSpec)
                     for f in fields(cls)}
    config_fields |= {f.name for f in fields(FleetConfig)} - {"serve", "fabric"}
    dests = {a.dest for command in ("serve", "fleet")
             for a in load_test_actions(command)}
    assert dests - config_fields == set(CLI_ONLY)


def test_serve_flags_default_to_their_fields():
    defaults = {f.name: f.default
                for cls in (ServeConfig, FleetConfig, FabricSpec)
                for f in fields(cls) if f.default is not MISSING}
    actions = [a for a in load_test_actions("serve") if a.dest in defaults]
    assert len(actions) == 19
    assert all(a.default == defaults[a.dest] for a in actions)


REASONS = (
    "abstract",     # a base-class hook every subclass overrides
    "oracle",       # the reference a test holds a fast path to
    "fixture",      # a toy graph tests build
    "bench-bound",  # a name bench_e2e/layers.py binds (ROADMAP 6b)
    "user door",    # a path a user reaches and the census traffic does not
    "fault path",   # runs only on a fault, a timeout or a refused input
    "no row yet",   # a feature waiting for its benchmark row
)
UNREACHED = {
    **dict.fromkeys([
        "src/repro/algorithms/base.py:VertexProgram.init_state",
        "src/repro/algorithms/base.py:VertexProgram.step",
        "src/repro/algorithms/base.py:VertexProgram.values",
        "src/repro/engines/base.py:Engine._iteration",
        "src/repro/engines/base.py:Engine._prepare",
        "src/repro/engines/base.py:Engine._release_memory",
        "src/repro/engines/base.py:Engine._report_extra",
        "src/repro/serve/scheduler.py:Scheduler._pick_lead",
    ], "abstract"),
    **dict.fromkeys([
        "src/repro/algorithms/validate.py:reference_sswp_widths",
        "src/repro/analysis/reuse.py:_access_stream",
        "src/repro/analysis/reuse.py:reuse_distances_stream",
        "src/repro/gpusim/fabric.py:fold_exchange_bytes",
    ], "oracle"),
    **dict.fromkeys([
        f"src/repro/graph/generators.py:{name}_graph"
        for name in ("complete", "cycle", "erdos_renyi", "grid", "path", "star")
    ], "fixture"),
    **dict.fromkeys([
        "src/repro/core/replacement.py:HotnessTable.hotness",
        "src/repro/core/replacement.py:HotnessTable.staleness",
        "src/repro/core/replacement.py:HotnessTable.update_runs",
        "src/repro/core/static_region.py:StaticRegion.chunk_touch_counts",
        "src/repro/core/static_region.py:StaticRegion.touched_chunk_runs",
        "src/repro/gpusim/device.py:SimulatedGPU.cpu_work",
        "src/repro/gpusim/events.py:EventLog.emit_batch",
        "src/repro/gpusim/uvm.py:UVMMemory.prefetch",
        "src/repro/graph/shard.py:halo_map",
        "src/repro/graph/shard.py:per_shard_budgets",
        "src/repro/harness/checkpoint.py:CheckpointStore.clear",
        "src/repro/harness/checkpoint.py:CheckpointStore.load",
        "src/repro/harness/checkpoint.py:CheckpointStore.save",
        "src/repro/harness/checkpoint.py:CheckpointWriter.save",
    ], "bench-bound"),
    **dict.fromkeys([
        # repro run / compare / sweep-ratio and the --ratio parser
        "src/repro/cli.py:_cmd_compare",
        "src/repro/cli.py:_cmd_run",
        "src/repro/cli.py:_cmd_sweep_ratio",
        "src/repro/cli.py:unit_ratio",
        "src/repro/engines/registry.py:register",
        "src/repro/engines/registry.py:unregister",
        # docs/extending.md's way to resize a spec
        "src/repro/gpusim/device.py:GPUSpec.with_memory",
        "src/repro/gpusim/events.py:EventLog.emit_row",
        "src/repro/gpusim/faults.py:FaultPlan.from_dict",
        "src/repro/harness/persistence.py:load_results",
        # the on-disk checkpoint store and the blob it pickles
        "src/repro/engines/base.py:Engine._restore",
        "src/repro/engines/base.py:Engine.snapshot_state",
        "src/repro/graph/csr.py:CSRGraph.__getstate__",
        "src/repro/graph/csr.py:CSRGraph.__setstate__",
        "src/repro/harness/checkpoint.py:CheckpointStore.__init__",
        "src/repro/harness/checkpoint.py:CheckpointStore.keys",
        "src/repro/harness/checkpoint.py:CheckpointStore.path_for",
        "src/repro/harness/checkpoint.py:CheckpointWriter.__init__",
    ], "user door"),
    **dict.fromkeys([
        "src/repro/gpusim/events.py:_unknown_counter",
        "src/repro/gpusim/faults.py:DeviceFault.permanent",
        "src/repro/gpusim/faults.py:FaultInjector.note_device_stall",
        "src/repro/gpusim/faults.py:FaultInjector.stall_end",
        "src/repro/runner/executor.py:_can_use_sigalrm",
        "src/repro/runner/executor.py:_kill",
        "src/repro/runner/executor.py:_raise_timeout",
        "src/repro/runner/spec.py:RunSpec.label",
    ], "fault path"),
    **dict.fromkeys([
        # the baseline test_serve_sim.py holds affinity scheduling against
        "src/repro/serve/scheduler.py:FifoScheduler._pick_lead",
        # ROADMAP 10(a) reads it
        "src/repro/graph/shard.py:GraphShard.local_degree",
    ], "no row yet"),
}


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REPO / "ci" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_is_reached_or_named_with_a_reason():
    defined = set(load_reach().defined_functions())
    reached = set((REPO / "ci" / "reach.txt").read_text().split())
    listed = set(UNREACHED)
    assert sorted(defined - reached - listed) == [], "unreached and unlisted"
    assert sorted(listed & reached) == [], "listed but reached"
    assert sorted((reached | listed) - defined) == [], "no such function"


def test_unreached_reasons_are_from_the_vocabulary():
    assert {k: r for k, r in UNREACHED.items() if r not in REASONS} == {}
    layers = (REPO / "bench_e2e" / "layers.py").read_text()
    unbound = [k for k, r in UNREACHED.items() if r == "bench-bound"
               and f'"{k.split(":")[1].split(".")[-1]}"' not in layers]
    assert unbound == []
