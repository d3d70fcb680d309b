"""Table 4 — overall performance: PT seconds, Subway/Ascetic speedups over PT.

Paper (Table 4): Subway 5.6× and Ascetic 11.4× geomean speedup over PT;
Ascetic beats Subway in every cell, with the largest wins on BFS.
"""

from repro.analysis.report import format_table, geomean

from conftest import ALGO_ORDER, DATASET_ORDER, GRID, report

RUNS = GRID

PAPER = {  # (PT seconds, Subway ×, Ascetic ×)
    ("GS", "SSSP"): (279.9, 9.4, 15.2), ("FK", "SSSP"): (145.2, 7.3, 10.9),
    ("FS", "SSSP"): (177.9, 6.5, 8.6), ("UK", "SSSP"): (595.4, 16.5, 23.7),
    ("GS", "PR"): (249.1, 1.9, 2.5), ("FK", "PR"): (97.9, 1.4, 3.1),
    ("FS", "PR"): (198.3, 2.1, 2.8), ("UK", "PR"): (393.6, 2.3, 4.6),
    ("GS", "CC"): (40.5, 2.9, 17.6), ("FK", "CC"): (36.4, 1.8, 6.0),
    ("FS", "CC"): (59.4, 3.4, 5.2), ("UK", "CC"): (595.4, 16.5, 23.7),
    ("GS", "BFS"): (49.2, 9.9, 84.7), ("FK", "BFS"): (59.2, 10.6, 28.0),
    ("FS", "BFS"): (84.7, 9.9, 15.2), ("UK", "BFS"): (281.2, 35.3, 50.2),
}


def test_table4_performance(benchmark, grid):
    def collect():
        rows, sub_speedups, asc_speedups = [], [], []
        for algo in ALGO_ORDER:
            for abbr in DATASET_ORDER:
                cell = grid[(abbr, algo)]
                pt = cell["PT"].elapsed_seconds
                sub = pt / cell["Subway"].elapsed_seconds
                asc = pt / cell["Ascetic"].elapsed_seconds
                sub_speedups.append(sub)
                asc_speedups.append(asc)
                p_pt, p_sub, p_asc = PAPER[(abbr, algo)]
                rows.append(
                    [
                        algo, abbr, f"{pt:.1f}s", f"{sub:.1f}X", f"{asc:.1f}X",
                        f"{p_pt:.1f}s", f"{p_sub:.1f}X", f"{p_asc:.1f}X",
                    ]
                )
        rows.append(
            [
                "GEOMEAN", "", "",
                f"{geomean(sub_speedups):.1f}X", f"{geomean(asc_speedups):.1f}X",
                "", "5.6X", "11.4X",
            ]
        )
        return rows, sub_speedups, asc_speedups

    rows, sub_speedups, asc_speedups = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "table4",
        "Table 4 — performance (measured vs paper; normalized to PT)",
        format_table(
            ["algo", "ds", "PT", "Subway", "Ascetic", "paper PT", "paper Sub", "paper Asc"],
            rows,
        ),
    )

    # Shape claims:
    # 1. Ascetic beats Subway in every single cell (the paper's Table 4).
    for (abbr, algo), cell in grid.items():
        assert (
            cell["Ascetic"].elapsed_seconds < cell["Subway"].elapsed_seconds
        ), (abbr, algo)
    # 2. Both beat PT on geomean; Ascetic by clearly more.
    g_sub, g_asc = geomean(sub_speedups), geomean(asc_speedups)
    assert g_sub > 1.5
    assert g_asc > 1.5 * g_sub
    # 3. BFS shows the largest PT gap (sparse frontiers vs whole-partition
    #    swaps), as in the paper's 10–85× BFS rows.
    bfs_asc = geomean(
        [grid[(d, "BFS")]["PT"].elapsed_seconds / grid[(d, "BFS")]["Ascetic"].elapsed_seconds
         for d in DATASET_ORDER]
    )
    assert bfs_asc > g_asc
