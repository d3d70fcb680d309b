"""Guard: only the cost-model classes read the cost-model constants.

Each op kind is priced by one function returning ``(fixed, variable)``
seconds (``PCIeLink.copy_cost`` / ``direct_cost``, ``HostGather.gather_cost``,
``KernelModel.edge_cost`` / ``scan_cost``, ``LinkSpec.copy_cost``).  The
device ops, the round aggregate, the swap budget, the UVM kernel term,
``Fabric.transfer`` and Hybrid's scores all call those functions, so a
policy's estimate cannot drift from what the lanes charge.  Reading a
latency, bandwidth or throughput anywhere else would restate the arithmetic
by hand; this test fails on any such read under ``src/repro``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CONSTANTS = {"latency", "bandwidth", "setup", "direct_latency",
             "direct_bandwidth", "launch_overhead", "edge_throughput",
             "atomic_penalty", "vertex_scan_throughput"}
#: Files that define a cost function.
HOMES = {"gpusim/pcie.py", "gpusim/kernel.py", "gpusim/host.py"}
#: (file, scope prefix): the fabric's link type, which also derives the peer
#: link from the host link's constants.
SCOPES = {("gpusim/fabric.py", "LinkSpec")}


def constant_reads(node: ast.AST, scope: str = ""):
    """``(scope, attribute, line)`` for every constant read under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif (isinstance(child, ast.Attribute) and child.attr in CONSTANTS
              and isinstance(child.ctx, ast.Load)):
            yield scope, child.attr, child.lineno
        yield from constant_reads(child, inner)


def allowed(rel: str, scope: str) -> bool:
    return rel in HOMES or any(
        rel == home and (scope == prefix or scope.startswith(prefix + "."))
        for home, prefix in SCOPES)


def test_only_cost_functions_read_cost_constants():
    offenders = [
        f"{rel}:{line} {scope or '<module>'} reads .{attr}"
        for path in sorted(SRC.rglob("*.py"))
        for rel in [path.relative_to(SRC).as_posix()]
        for scope, attr, line in constant_reads(ast.parse(path.read_text()))
        if not allowed(rel, scope)
    ]
    assert offenders == []


def test_guard_sees_a_hand_written_restatement():
    source = ("class Policy:\n"
              "    def plan(self, link):\n"
              "        return link.latency + 1 / link.bandwidth\n")
    reads = list(constant_reads(ast.parse(source)))
    assert reads == [("Policy.plan", "latency", 3),
                     ("Policy.plan", "bandwidth", 3)]
    assert not allowed("engines/hybrid.py", "Policy.plan")
    assert allowed("gpusim/fabric.py", "LinkSpec.__post_init__")
    assert not allowed("gpusim/fabric.py", "Fabric.transfer")
