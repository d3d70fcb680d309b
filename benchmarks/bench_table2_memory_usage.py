"""Table 2 — average GPU memory used per iteration by the fine-grained scheme.

Paper (Table 2), on a 8–16 GB card:

    Dataset            BFS      SSSP     CC       PR
    Friendster-konect  0.45GB   0.64GB   1.64GB   2.97GB
    UK-2007-04         0.11GB   0.94GB   0.46GB   3.80GB

Plus §2.2's companion measurement: "68 % of GPU time is idle in BFS ...
on Friendster-konect" under the sequential Subway pipeline.  Both come out
of one Subway run per cell.
"""

import pytest

from repro.analysis.report import format_table, human_bytes

from conftest import ALGO_ORDER, GRID, report

RUNS = GRID

PAPER_GB = {
    "FK": {"BFS": 0.45, "SSSP": 0.64, "CC": 1.64, "PR": 2.97},
    "UK": {"BFS": 0.11, "SSSP": 0.94, "CC": 0.46, "PR": 3.80},
}
PAPER_GPU_GB = 10.0


def test_table2_memory_usage(benchmark, grid):
    def usage(abbr, algo):
        """Average gathered-subgraph bytes per iteration, paper scale."""
        return grid[(abbr, algo)]["Subway"].extra["avg_iteration_bytes"]

    def collect():
        rows = []
        for abbr in ("FK", "UK"):
            measured = [usage(abbr, algo) for algo in ALGO_ORDER]
            rows.append([abbr, *(human_bytes(x) for x in measured)])
            rows.append(
                ["paper", *(f"{PAPER_GB[abbr][a]:.2f}GB" for a in ALGO_ORDER)]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "table2",
        "Table 2 — average memory usage per iteration (Subway-style engine)",
        format_table(["dataset", *ALGO_ORDER], rows),
    )

    # Shape: the sparse traversals use almost none of the 10 GB card — the
    # under-utilization motivating the Static Region.  (CC on the deep UK
    # crawl churns harder than the paper's CC — see EXPERIMENTS.md — so the
    # hard bound is asserted on the other cells.)
    for abbr in ("FK", "UK"):
        assert usage(abbr, "BFS") / 1e9 < 1.0
        assert usage(abbr, "SSSP") / 1e9 < 2.5
        assert usage(abbr, "PR") / 1e9 < 6.0
    # BFS uses the least memory; PR-class workloads the most (paper's order).
    for abbr in ("FK", "UK"):
        assert usage(abbr, "BFS") < usage(abbr, "PR")


def test_section22_gpu_idle_time(benchmark, grid):
    """§2.2: the sequential pipeline leaves the GPU idle most of the time."""
    idle = benchmark.pedantic(
        lambda: grid[("FK", "BFS")]["Subway"].gpu_idle_fraction,
        rounds=1,
        iterations=1,
    )
    rows = [["Subway BFS/FK GPU idle", f"{idle:.1%}", "68% (paper §2.2)"]]
    report(
        "section22_idle",
        "§2.2 — GPU idle share under the sequential Subway pipeline",
        format_table(["quantity", "measured", "paper"], rows),
    )
    assert 0.4 < idle < 0.9
