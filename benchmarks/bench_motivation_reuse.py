"""§1–2 motivation — reuse distances, LRU's cliff, and the pinned alternative.

The paper's founding observations, quantified on our workloads:

* graph traversals *do* reuse data across iterations, but the reuse
  distance is roughly the whole dataset (Fig. 1's Pa→Pb→Pc→Pa pattern);
* therefore LRU caching (UVM, partition swapping) earns ~0 hits until
  capacity reaches the working set — a cliff;
* a *pinned* region of the same size earns hits proportional to its
  coverage — no cliff.  That delta is the entire reason the Static Region
  exists.

Also reproduces §1's headline measurement: PT-style processing of PR on FK
moves a large multiple of the graph per run (the paper measured 1306 GB ≈
2× the dataset *per iteration* on its 11 GB card).
"""

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.reuse import lru_hit_rate_curve, pinned_hit_rate, reuse_distances
from repro.analysis.traces import fold_access_trace
from repro.harness.experiments import make_workload
from repro.runner import RunSpec

from conftest import report

SCALE = 5e-5  # reuse-distance analysis is O(accesses · log) — keep it light
# §2's UVM trace: nothing pinned, every superstep's page set recorded.
TRACED = RunSpec("FK", "PR", "UVM", scale=SCALE,
                 engine_opts={"pin_fraction": 0.0, "record_events": True})
PT = RunSpec("FK", "PR", "PT")
PINNED = RunSpec("FK", "PR", "PT", engine_opts={"pinned_partitions": 1})
RUNS = [TRACED, PT, PINNED]


def test_motivation_reuse_distance(benchmark, cells):
    def run():
        trace, summary = fold_access_trace(
            cells[TRACED], make_workload("FK", "PR", scale=SCALE).graph)
        n_chunks = summary.n_chunks
        distances = reuse_distances(trace.chunk_sets)
        caps = [n_chunks // 8, n_chunks // 4, n_chunks // 2,
                3 * n_chunks // 4, n_chunks]
        lru = lru_hit_rate_curve(trace.chunk_sets, caps)
        pinned = [pinned_hit_rate(trace.chunk_sets, c) for c in caps]
        return n_chunks, distances, caps, lru, pinned

    n_chunks, distances, caps, lru, pinned = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    median_d = float(np.median(distances)) if distances.size else 0.0
    rows = [
        [f"{cap / n_chunks:.0%}", f"{l:.1%}", f"{p:.1%}"]
        for cap, l, p in zip(caps, lru, pinned)
    ]
    text = format_table(
        ["cache capacity / dataset", "LRU hit rate", "pinned-region hit rate"], rows
    )
    text += (
        f"\n\nmedian reuse distance: {median_d:,.0f} of {n_chunks:,} chunks "
        f"({median_d / n_chunks:.0%} of the dataset)"
    )
    report("motivation_reuse", "§1–2 motivation — reuse distance and the LRU cliff "
           "(PR on FK, UVM trace)", text)

    # The three claims.
    assert median_d > 0.5 * n_chunks, "reuse distances span most of the dataset"
    # LRU at half the dataset earns (almost) nothing; pinned earns plenty.
    assert lru[2] < 0.15
    assert pinned[2] > 0.30
    assert pinned[2] > lru[2] + 0.25


def test_motivation_fig1_partition_reuse(benchmark, cells):
    """§1's measured motivation: on PR/FK, pinning one partition in the
    PT scheme cut CPU→GPU transfer from 1306 GB to 966 GB (−26 %) — the
    seed of the Static Region idea (Fig. 1's "Partition + Reuse" row)."""
    base, pinned = benchmark.pedantic(lambda: (cells[PT], cells[PINNED]),
                                      rounds=1, iterations=1)
    reduction = 1 - pinned.metrics.bytes_h2d / base.metrics.bytes_h2d
    rows = [
        ["PT (swap everything)", f"{base.metrics.bytes_h2d / 1e9:.0f}GB", "1306GB"],
        ["PT + one pinned partition", f"{pinned.metrics.bytes_h2d / 1e9:.0f}GB", "966GB"],
        ["reduction", f"{reduction:.0%}", "26%"],
    ]
    report(
        "motivation_fig1",
        "§1 / Fig. 1 — pinning one partition in the PT scheme (PR on FK)",
        format_table(["configuration", "measured", "paper"], rows),
    )
    assert 0.10 < reduction < 0.60
    assert pinned.elapsed_seconds <= base.elapsed_seconds
