"""Figure 7 — Ascetic vs Subway: speedup and transfer volume per workload.

Paper: Ascetic averages 2.0× over Subway, moving ≈39 % of Subway's data
("the data transfer does not contain the static prestore data" — hence the
processing-transfer accounting here).
"""

from repro.analysis.report import format_table, geomean

from conftest import ALGO_ORDER, DATASET_ORDER, GRID, report

RUNS = GRID


def test_fig7_vs_subway(benchmark, grid):
    def collect():
        rows, speeds, vols = [], [], []
        for algo in ALGO_ORDER:
            for abbr in DATASET_ORDER:
                cell = grid[(abbr, algo)]
                speed = cell["Subway"].elapsed_seconds / cell["Ascetic"].elapsed_seconds
                vol = max(cell["Ascetic"].processing_bytes_h2d, 1.0) / max(
                    cell["Subway"].processing_bytes_h2d, 1.0
                )
                speeds.append(speed)
                vols.append(vol)
                rows.append([f"{algo}-{abbr}", f"{speed:.2f}x", f"{vol:.2f}"])
        rows.append(
            ["AVERAGE", f"{geomean(speeds):.2f}x", f"{geomean(vols):.2f}"]
        )
        return rows, speeds, vols

    rows, speeds, vols = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "fig7",
        "Fig. 7 — speedup and transfer volume relative to Subway "
        "(paper: 2.0x mean speedup, ~0.39 mean volume)",
        format_table(["workload", "speedup", "transfer vs Subway"], rows),
    )

    # Shape claims: ~2× mean speedup, well under half the transfer volume,
    # and Ascetic ahead in every cell.
    assert 1.5 < geomean(speeds) < 3.5
    assert geomean(vols) < 0.6
    assert min(speeds) > 1.0
