#!/usr/bin/env python
"""Tuning the Static/On-demand split for your own workload.

Reproduces the paper's Fig. 10 methodology on a user-supplied graph: sweep
the forced Static Region ratio, print the component timers, and compare
against the analytic Eq. 2 pick.  Useful when adopting Ascetic for a
workload whose active fraction K differs from the 10 % default.

Run:  python examples/memory_tuning.py
"""

from repro.analysis.report import format_table, sparkline
from repro.core.ratio import DEFAULT_K, static_ratio
from repro.graph.generators import social_graph
from repro.gpusim.device import GPUSpec
from repro.harness.experiments import Workload, run_workload
from repro.algorithms import make_program

# Bring your own graph — anything in CSR form works.  Here: a synthetic
# 600k-arc community graph, on a device that holds ~45 % of it.
SCALE = 1e-2  # pretend this is 1/100 of the real deployment
graph = social_graph(20_000, 300_000, seed=9)
spec = GPUSpec(memory_bytes=graph.vertex_state_bytes + graph.edge_array_bytes * 45 // 100)

workload = Workload(
    dataset=None,
    algorithm="PR",
    graph=graph,
    spec=spec,
    scale=SCALE,
    program_factory=lambda: make_program("PR", tol=1e-2),
)

# A custom graph has no dataset name for the grid runner, so the sweep is a
# plain loop over run_workload.  Adaptive repartitioning is pinned off so
# each run keeps its forced ratio.
ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0]
points = [(r, run_workload(workload, "Ascetic", forced_ratio=r, adaptive=False))
          for r in ratios]
subway_seconds = run_workload(workload, "Subway").elapsed_seconds
eq2 = static_ratio(DEFAULT_K, graph.edge_array_bytes,
                   spec.memory_bytes - graph.vertex_state_bytes)

rows = [
    [f"{r:.2f}", f"{res.elapsed_seconds:.2f}s"]
    + [f"{res.metrics.phase_seconds.get(ph, 0.0):.2f}s"
       for ph in ("Tsr", "Tfilling", "Ttransfer", "Tondemand")]
    for r, res in points
]
print(format_table(
    ["ratio", "total", "Tsr", "Tfilling", "Ttransfer", "Tondemand"],
    rows,
    title="Static Region ratio sweep (PR on a custom community graph)",
))
print("\ntotal time over ratio:",
      sparkline([res.elapsed_seconds for _, res in points], width=len(points)))
best_ratio, best = min(points, key=lambda p: p[1].elapsed_seconds)
print(f"\nsweep optimum   : ratio {best_ratio:.2f} → {best.elapsed_seconds:.2f}s")
print(f"Eq. 2 analytic  : ratio {eq2:.2f} (K = 10% default)")
print(f"Subway baseline : {subway_seconds:.2f}s")

# Eq. 2 with a measured K: feed the real active fraction back in.
from repro.analysis.active_edges import active_edge_fractions

fractions = active_edge_fractions(graph, workload.fresh_program())
k_measured = sum(fractions) / len(fractions)
eq2_tuned = static_ratio(
    k_measured, graph.edge_array_bytes,
    spec.memory_bytes - graph.vertex_state_bytes,
)
print(f"measured K      : {k_measured:.1%} → Eq. 2 ratio {eq2_tuned:.2f}")
