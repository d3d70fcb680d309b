"""Guard: every option on the surface is set by something that is measured.

An engine option (a keyword of the engine's constructor beyond ``Engine``'s
own, read from its signature) or a ``GPUSpec`` field stays while a file under
``benchmarks/``, ``bench_e2e/`` or ``src/`` other than its defining module
passes it, by keyword or ``engine_opts`` dict key, in a call of its owner's
class or copy helper or one that names the engine — tests and the registry are
not callers (ROADMAP item 7).  The unreached set must *equal* ``DEFERRED``: an option nobody sets
fails, and so does a deferred one once reached, so the list can only shrink.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

from repro.engines import registry
from repro.gpusim.device import GPUSpec

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
