"""Figure 8 — breakdown of the optimization benefits.

Paper (§4.3): averaged over workloads, ~37 % of the execution-time
improvement over Subway comes from *Static savings* (the Static Region's
avoided transfers, measured with overlap disabled) and ~10 % more from
*Overlapping savings* (§3.2's concurrent schedule).  BFS — with no
cross-iteration reuse — still gets ~6.5 % static savings because static-
resident data needs no transfer at all.
"""

import pytest

from repro.analysis.breakdown import measure_breakdown
from repro.analysis.report import format_table
from repro.harness.experiments import BENCH_SCALE, make_workload

from conftest import DATASET_ORDER, report

ALGOS = ("BFS", "CC", "PR")


def test_fig8_breakdown(benchmark):
    def collect():
        out = {}
        for abbr in DATASET_ORDER:
            for algo in ALGOS:
                out[(abbr, algo)] = measure_breakdown(
                    make_workload(abbr, algo, scale=BENCH_SCALE))
        return out

    results = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    static_all, overlap_all = [], []
    for (abbr, algo), bd in results.items():
        rows.append(
            [
                f"{algo}-{abbr}",
                f"{bd.static_saving:+.1%}",
                f"{bd.overlap_saving:+.1%}",
                f"{bd.total_saving:+.1%}",
            ]
        )
        static_all.append(bd.static_saving)
        overlap_all.append(bd.overlap_saving)
    avg_static = sum(static_all) / len(static_all)
    avg_overlap = sum(overlap_all) / len(overlap_all)
    rows.append(["AVERAGE", f"{avg_static:+.1%}", f"{avg_overlap:+.1%}", ""])
    rows.append(["paper avg", "+37%", "+10%", ""])
    report(
        "fig8",
        "Fig. 8 — optimization breakdown vs Subway (Static vs Overlapping savings)",
        format_table(["workload", "static", "overlap", "total"], rows),
    )

    # Shape claims: both components contribute, static dominates, and the
    # averages land near the paper's 37 % / 10 % split.
    assert 0.15 < avg_static < 0.60
    assert 0.03 < avg_overlap < 0.30
    assert avg_static > avg_overlap
    # BFS still benefits from the Static Region (§4.3's 6.5 % average).
    bfs_static = [results[(d, "BFS")].static_saving for d in DATASET_ORDER]
    assert sum(bfs_static) / len(bfs_static) > 0.03
