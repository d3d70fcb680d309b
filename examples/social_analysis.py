#!/usr/bin/env python
"""Social-network analysis: reachability and communities out-of-memory.

The other motivating workload class (recommender systems, §3.1): on a
friendster-scale social graph, compute single-source reachability (BFS),
shortest hop+weight paths (SSSP), and connected components (CC), all under
the Ascetic engine, and show the per-iteration dynamics that make
cross-iteration reuse worthwhile.

Run:  python examples/social_analysis.py
"""

import numpy as np

from repro import AsceticEngine, SubwayEngine
from repro.analysis.report import format_table, human_bytes, sparkline
from repro.graph.properties import graph_stats
from repro.harness.experiments import make_workload

SCALE = 2e-4
graph = make_workload("FS", "BFS", scale=SCALE).graph
print(f"analysing {graph}")
print(f"stats: {graph_stats(graph)}\n")

rows = []
for algo in ("BFS", "SSSP", "CC"):
    # Each algorithm's graph view (SSSP: weighted), GPU spec and pinned
    # parameters (traversals start at the max-out-degree hub).
    w = make_workload("FS", algo, scale=SCALE)
    asc = AsceticEngine(spec=w.spec, data_scale=w.scale).run(w.graph, w.fresh_program())
    sub = SubwayEngine(spec=w.spec, data_scale=w.scale).run(w.graph, w.fresh_program())
    rows.append(
        [
            algo,
            asc.iterations,
            f"{asc.elapsed_seconds:.2f}s",
            f"{sub.elapsed_seconds / asc.elapsed_seconds:.2f}x",
            human_bytes(asc.processing_bytes_h2d),
        ]
    )
    if algo == "BFS":
        frontier = [rec.n_active_edges for rec in asc.per_iteration]
        print("BFS frontier size over supersteps:")
        print(" ", sparkline(frontier, width=60), f" (peak {max(frontier):,} edges)")
        reached = int((asc.values >= 0).sum())
        print(f"  {reached:,}/{graph.n_vertices:,} members reachable "
              f"from hub {w.fresh_program().source}\n")
    if algo == "CC":
        labels = asc.values
        sizes = np.sort(np.bincount(labels - labels.min()))[::-1]
        sizes = sizes[sizes > 0]
        print(f"communities: {sizes.size:,} components; "
              f"largest covers {sizes[0] / graph.n_vertices:.1%} of members\n")

print(format_table(
    ["algorithm", "supersteps", "Ascetic time", "speedup vs Subway", "processing H2D"],
    rows,
))
