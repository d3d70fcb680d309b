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
"""

import argparse
import ast
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
    "fabric": "JSON text for the whole FabricSpec, over --devices/--topology",
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
