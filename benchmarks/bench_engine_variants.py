"""Ablation — engine variants beyond the paper's baselines.

Two questions the paper leaves implicit, answered quantitatively:

1. *How much of PT's loss is single-buffering?*  GraphReduce-style systems
   can double-buffer; the variant pipelines partition transfer behind
   compute.  It helps — but the redundant whole-partition traffic remains,
   so PT stays far behind.
2. *How much of Ascetic's win over Subway is mere pipelining?*  A pipelined
   Subway overlaps gather/transfer/compute across rounds without any
   Static Region.  It recovers part of the gap; the rest — the paper's
   actual contribution — needs the avoided transfers of the Static Region.
"""

from repro.analysis.report import format_table
from repro.runner import RunSpec

from conftest import report

VARIANTS = {
    "PT (single buffer)": RunSpec("FK", "PR", "PT"),
    "PT (double buffer)": RunSpec("FK", "PR", "PT",
                                  engine_opts={"double_buffer": True}),
    "Subway (sequential)": RunSpec("FK", "PR", "Subway"),
    "Subway (pipelined)": RunSpec("FK", "PR", "Subway",
                                  engine_opts={"pipelined": True}),
    "Ascetic": RunSpec("FK", "PR", "Ascetic"),
}
RUNS = list(VARIANTS.values())


def test_engine_variants(benchmark, cells):
    results = benchmark.pedantic(
        lambda: {name: cells[spec] for name, spec in VARIANTS.items()},
        rounds=1, iterations=1)
    best = results["Ascetic"].elapsed_seconds
    rows = [
        [name, f"{r.elapsed_seconds:.1f}s", f"{r.elapsed_seconds / best:.2f}x",
         f"{r.gpu_idle_fraction:.0%}"]
        for name, r in results.items()
    ]
    report(
        "engine_variants",
        "Ablation — engine variants (PR on FK): pipelining vs the Static Region",
        format_table(["engine", "time", "vs Ascetic", "GPU idle"], rows),
    )

    t = {k: v.elapsed_seconds for k, v in results.items()}
    # Double buffering helps PT but does not rescue it.
    assert t["PT (double buffer)"] < t["PT (single buffer)"]
    assert t["PT (double buffer)"] > t["Ascetic"]
    # Pipelining helps Subway, yet Ascetic stays ahead: the Static Region's
    # avoided transfers are the bigger lever.
    assert t["Subway (pipelined)"] < t["Subway (sequential)"]
    assert t["Ascetic"] < t["Subway (pipelined)"]
