"""Ablations of the design choices DESIGN.md calls out (paper §5).

* initial Static Region fill (front / rear / random / lazy) — paper: < 5 %
  runtime difference between prefill policies;
* §3.4 chunk replacement on/off — paper: "does not significantly improve
  the performance" because the on-demand window only fits ~2 % of the data;
* §3.3 adaptive repartitioning on/off — the safety valve for mis-sized
  regions;
* Eq. 2's K parameter sensitivity around the 10 % default.
"""

import pytest

from repro.analysis.report import format_table
from repro.harness.experiments import BENCH_SCALE, make_workload, run_workload

from conftest import report


def test_ablation_fill_policies(benchmark):
    w = make_workload("FK", "PR", scale=BENCH_SCALE)

    def run():
        return {
            fill: run_workload(w, "Ascetic", fill=fill)
            for fill in ("front", "rear", "random", "lazy")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [fill, f"{r.elapsed_seconds:.2f}s",
         f"{r.extra['static_prefill_bytes'] / 1e9:.2f}GB",
         f"{r.processing_bytes_h2d / 1e9:.1f}GB"]
        for fill, r in results.items()
    ]
    report(
        "ablation_fill",
        "§5 ablation — initial Static Region fill (paper: < 5% difference)",
        format_table(["fill", "time", "prefill", "processing xfer"], rows),
    )

    times = [r.elapsed_seconds for f, r in results.items() if f != "lazy"]
    spread = (max(times) - min(times)) / min(times)
    assert spread < 0.10, "prefill policy choice must be near-irrelevant (§5)"
    # Lazy fill trades prefill traffic for first-iteration coverage.
    assert results["lazy"].extra["static_prefill_bytes"] == 0


def test_ablation_replacement(benchmark):
    w = make_workload("FK", "PR", scale=BENCH_SCALE)

    def run():
        on = run_workload(w, "Ascetic", fill="front", replacement=True)
        off = run_workload(w, "Ascetic", fill="front", replacement=False)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    swap_share = on.extra["swap_bytes"] / max(on.metrics.bytes_h2d, 1)
    delta = (off.elapsed_seconds - on.elapsed_seconds) / off.elapsed_seconds
    rows = [
        ["replacement on", f"{on.elapsed_seconds:.2f}s", f"{swap_share:.1%}"],
        ["replacement off", f"{off.elapsed_seconds:.2f}s", "-"],
        ["time delta", f"{delta:+.1%}", ""],
    ]
    report(
        "ablation_replacement",
        "§5 ablation — chunk replacement (paper: ~2% of data fits the window; "
        "no significant speedup)",
        format_table(["config", "time", "swap share of H2D"], rows),
    )

    # The §5 finding: replacement is bounded by the window and moves the
    # needle by little either way.
    assert swap_share < 0.15
    assert abs(delta) < 0.15


def test_ablation_adaptive_repartition(benchmark):
    # A deliberately mis-sized static region on an id-local dataset: the
    # Eq. 3 valve must recover most of the loss.
    w = make_workload("UK", "SSSP", scale=BENCH_SCALE)
    bad = dict(fill="rear", forced_ratio=0.97)

    def run():
        on = run_workload(w, "Ascetic", adaptive=True, **bad)
        off = run_workload(w, "Ascetic", adaptive=False, **bad)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["adaptive on", f"{on.elapsed_seconds:.2f}s", f"{on.extra['repartitions']:.0f}"],
        ["adaptive off", f"{off.elapsed_seconds:.2f}s", "0"],
    ]
    report(
        "ablation_adaptive",
        "§3.3 ablation — Eq. 3 adaptive repartitioning under a mis-sized region.\n"
        "Note: Eq. 3 assumes active data 'distributed more or less evenly'; on a\n"
        "crawl-ordered (id-banded) dataset like UK the shrink can discard coverage\n"
        "the traversal wave would have reached later — visible here when 'on' loses.",
        format_table(["config", "time", "repartitions"], rows),
    )
    # The mechanism fires and both configurations stay correct; the paper's
    # even-spread assumption decides which wins (see the report note).
    assert on.extra["repartitions"] >= 1
    import numpy as np

    assert np.array_equal(on.values, off.values)


@pytest.mark.parametrize("k", [0.05, 0.10, 0.20])
def test_ablation_k_sensitivity(benchmark, k):
    w = make_workload("FS", "CC", scale=BENCH_SCALE)
    res = benchmark.pedantic(
        lambda: run_workload(w, "Ascetic", k=k),
        rounds=1,
        iterations=1,
    )
    report(
        f"ablation_k_{k}",
        f"§3.3 ablation — K = {k:.0%} (Eq. 2 input; paper default 10%)",
        format_table(
            ["K", "static ratio", "time"],
            [[f"{k:.0%}", f"{res.extra['static_ratio']:.2f}",
              f"{res.elapsed_seconds:.2f}s"]],
        ),
    )
    assert res.elapsed_seconds > 0
