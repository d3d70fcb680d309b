"""Figure 2 — chunk-granularity access patterns under UVM.

The paper's §2 experiment: vertices stay in GPU memory, edges live in UVM,
and nvprof traces which data chunks each iteration touches.  Three claims
are read off the plots:

* panels (a)–(c): each iteration sweeps the chunk space in a *roughly
  sequential scan*;
* panels (d)–(f): per-chunk access counts are *flat* — "no noticeable hot
  spot";
* the per-iteration touch set is *sparse* relative to the dataset.

A recorded UVM run logs the same signal; the report prints the summary
statistics plus an ASCII rendering of the access-count panel.
"""

import pytest

from repro.analysis.report import format_table, sparkline
from repro.analysis.traces import trace_uvm_run
from repro.harness.experiments import BENCH_SCALE, make_workload

from conftest import report


@pytest.mark.parametrize("algo", ["PR", "SSSP", "CC"])
def test_fig2_access_patterns(benchmark, algo):
    w = make_workload("FK", algo, scale=BENCH_SCALE)

    trace, summary, result = benchmark.pedantic(
        trace_uvm_run, args=(w,), rounds=1, iterations=1)

    counts = trace.access_counts(summary.n_chunks)
    rows = [
        ["iterations", summary.n_iterations],
        ["chunks", summary.n_chunks],
        ["mean chunks touched / iteration", f"{summary.mean_fraction_per_iteration:.1%}"],
        ["within-iteration sequentiality", f"{summary.sequentiality:.2f}"],
        ["access-count CV (flat ≈ 0)", f"{summary.count_cv:.2f}"],
        ["chunks ever touched", f"{summary.touched_fraction:.1%}"],
    ]
    text = format_table(["quantity", "value"], rows)
    text += "\n\naccess counts over chunk id (Fig. 2 bottom panel):\n"
    text += sparkline(counts.tolist(), width=72)
    report(f"fig2_{algo}", f"Fig. 2 — {algo} access pattern on FK (UVM trace)", text)

    # The three §2 claims.
    assert summary.sequentiality > 0.8, "per-iteration scans must be near-sequential"
    assert summary.count_cv < 1.0, "no noticeable hot spot"
    assert summary.touched_fraction > 0.9, "whole dataset swept over the run"
    # Sparsity: PR touches widely; the traversals touch a fraction.
    assert summary.mean_fraction_per_iteration < 0.95
