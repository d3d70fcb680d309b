#!/usr/bin/env python
"""Reproduce the paper's headline numbers in one script.

A condensed version of what ``pytest benchmarks/ --benchmark-only`` does
in full: runs the 4-dataset × 4-algorithm grid on every engine and
prints the three headline comparisons —

* Table 4's geomean speedups over PT (paper: Subway 5.6×, Ascetic 11.4×);
* Table 5's geomean transfer ratios (paper: 32.5× / 3.6× / 1.4×);
* Fig. 7's mean Ascetic-vs-Subway speedup (paper: 2.0×).

Writes a machine-readable record to ``headlines.json``.

Run:  python examples/reproduce_headlines.py         (~2 minutes)
"""

from repro.analysis.report import format_table, geomean
from repro.engines import registry
from repro.harness.experiments import BENCH_SCALE
from repro.harness.persistence import save_results
from repro.runner import grid_specs, run_grid

DATASETS = ("GS", "FK", "FS", "UK")
ALGOS = ("BFS", "SSSP", "CC", "PR")

report = run_grid(grid_specs(DATASETS, ALGOS, registry.available(),
                             scale=BENCH_SCALE))
print(report.summary())
grid = report.result_map()
all_runs = [r for cell in grid.values() for r in cell.values()]

sub_speed, asc_speed, asc_vs_sub = [], [], []
xfer = {"PT": [], "Subway": [], "Ascetic": []}
for cell in grid.values():
    pt = cell["PT"].elapsed_seconds
    sub_speed.append(pt / cell["Subway"].elapsed_seconds)
    asc_speed.append(pt / cell["Ascetic"].elapsed_seconds)
    asc_vs_sub.append(cell["Subway"].elapsed_seconds / cell["Ascetic"].elapsed_seconds)
    for name in xfer:
        xfer[name].append(max(cell[name].transfer_over_dataset, 1e-3))

rows = [
    ["Subway speedup over PT (geomean)", f"{geomean(sub_speed):.1f}x", "5.6x"],
    ["Ascetic speedup over PT (geomean)", f"{geomean(asc_speed):.1f}x", "11.4x"],
    ["Ascetic speedup over Subway (mean)", f"{geomean(asc_vs_sub):.2f}x", "2.0x"],
    ["PT transfer / dataset (geomean)", f"{geomean(xfer['PT']):.1f}x", "32.5x"],
    ["Subway transfer / dataset (geomean)", f"{geomean(xfer['Subway']):.2f}x", "3.6x"],
    ["Ascetic transfer / dataset (geomean)", f"{geomean(xfer['Ascetic']):.2f}x", "1.4x"],
]
print()
print(format_table(["headline", "measured", "paper"], rows,
                   title="Ascetic reproduction — headline numbers"))

save_results(all_runs, "headlines.json")
print("\nfull per-run telemetry written to headlines.json")
