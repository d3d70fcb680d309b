"""Figure 9 — Ascetic vs the UVM baseline.

Paper (§4.4): UVM is 6.2× slower on average, with page-granularity
migration, LRU defeated by cross-iteration reuse distances, and fault
overheads; transfer-volume ratios reach 12–16× on the worst workloads.
"""

from repro.analysis.report import format_table, geomean

from conftest import ALGO_ORDER, DATASET_ORDER, GRID, report

RUNS = GRID


def test_fig9_vs_uvm(benchmark, grid):
    def collect():
        rows, speeds, vols = [], [], []
        for algo in ALGO_ORDER:
            for abbr in DATASET_ORDER:
                cell = grid[(abbr, algo)]
                speed = cell["UVM"].elapsed_seconds / cell["Ascetic"].elapsed_seconds
                vol = cell["UVM"].metrics.bytes_h2d / max(cell["Ascetic"].metrics.bytes_h2d, 1)
                speeds.append(speed)
                vols.append(vol)
                rows.append(
                    [f"{algo}-{abbr}", f"{speed:.2f}x",
                     f"{cell['UVM'].metrics.page_faults:,}", f"{vol:.2f}x"]
                )
        rows.append(["GEOMEAN", f"{geomean(speeds):.2f}x", "", f"{geomean(vols):.2f}x"])
        return rows, speeds, vols

    rows, speeds, vols = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "fig9",
        "Fig. 9 — Ascetic speedup over UVM and UVM/Ascetic transfer ratio "
        "(paper: 6.2x mean speedup; 12–16x worst-case transfer ratios)",
        format_table(["workload", "Ascetic speedup", "UVM faults", "UVM/Asc bytes"], rows),
    )

    # Shape claims: Ascetic clearly ahead overall; the oversubscribed
    # workloads (datasets bigger than the card) thrash hardest.
    assert geomean(speeds) > 1.5
    oversub = [
        (abbr, algo) for abbr in DATASET_ORDER for algo in ALGO_ORDER
        if grid[(abbr, algo)]["PT"].extra["dataset_bytes"]
        > 10e9  # paper-scale card
    ]
    assert oversub, "some workloads must oversubscribe the card"
    worst = max(
        grid[c]["UVM"].metrics.bytes_h2d / max(grid[c]["Ascetic"].metrics.bytes_h2d, 1)
        for c in oversub
    )
    assert worst > 2.0
    # Fault machinery engaged everywhere data did not fit.
    for c in oversub:
        assert grid[c]["UVM"].metrics.page_faults > 0
