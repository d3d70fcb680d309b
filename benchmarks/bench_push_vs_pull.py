"""Ablation — push vs pull, and plain vs delta-stepping SSSP.

Two programming-model choices the paper makes implicitly, quantified:

* §3.1 "we choose the push-based vertex-centric programming model": a
  pull-mode PageRank re-scans the whole edge array every iteration, so an
  out-of-memory engine streams a full dataset per round — push's
  active-only transfers are the enabler of everything else;
* the SSSP workload regime: plain frontier Bellman-Ford re-relaxes long
  weighted paths; delta-stepping (the standard GPU remedy) prunes that
  work while staying exact — shrinking exactly the on-demand traffic
  Ascetic has to schedule.
"""

import numpy as np

from repro.algorithms import SSSP
from repro.algorithms.validate import reference_sssp_distances
from repro.analysis.report import format_table
from repro.graph.properties import best_source
from repro.harness.experiments import BENCH_SCALE, make_workload
from repro.core.ascetic import AsceticEngine
from repro.engines.subway import SubwayEngine

from conftest import report


def test_push_vs_pull_pagerank(benchmark):
    push_w = make_workload("FK", "PR", scale=BENCH_SCALE)
    pull_w = make_workload("FK", "PR-PULL", scale=BENCH_SCALE)

    def run():
        return tuple(
            SubwayEngine(spec=w.spec, data_scale=w.scale).run(
                w.graph, w.fresh_program())
            for w in (push_w, pull_w)
        )

    push, pull = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["push (residual)", push.iterations, f"{push.elapsed_seconds:.1f}s",
         f"{push.metrics.bytes_h2d / push.iterations / 1e9:.2f}GB"],
        ["pull (topology-driven)", pull.iterations, f"{pull.elapsed_seconds:.1f}s",
         f"{pull.metrics.bytes_h2d / pull.iterations / 1e9:.2f}GB"],
    ]
    report(
        "push_vs_pull",
        "§3.1 ablation — push vs pull PageRank under the Subway engine (FK)",
        format_table(["mode", "iterations", "time", "H2D per iteration"], rows),
    )
    # Pull must stream (nearly) the whole dataset per iteration.
    per_iter_pull = pull.metrics.bytes_h2d / pull.iterations
    dataset = pull.extra["dataset_bytes"]
    assert per_iter_pull > 0.8 * dataset
    # Push's per-iteration traffic is below pull's.
    assert push.metrics.bytes_h2d / push.iterations < per_iter_pull


def test_sssp_delta_stepping(benchmark):
    w = make_workload("UK", "SSSP", scale=BENCH_SCALE)
    src = best_source(w.graph)

    def run():
        plain = AsceticEngine(spec=w.spec, data_scale=w.scale).run(
            w.graph, SSSP(source=src)
        )
        stepped = AsceticEngine(spec=w.spec, data_scale=w.scale).run(
            w.graph, SSSP(source=src, delta=4)
        )
        return plain, stepped

    plain, stepped = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["Bellman-Ford frontier", plain.iterations, f"{plain.elapsed_seconds:.1f}s",
         f"{plain.processing_bytes_h2d / 1e9:.0f}GB"],
        ["delta-stepping (Δ=4)", stepped.iterations, f"{stepped.elapsed_seconds:.1f}s",
         f"{stepped.processing_bytes_h2d / 1e9:.0f}GB"],
    ]
    report(
        "sssp_delta",
        "SSSP ablation — delta-stepping prunes re-relaxation traffic (UK, Ascetic)",
        format_table(["variant", "iterations", "time", "processing H2D"], rows),
    )
    ref = reference_sssp_distances(w.graph, src)
    assert np.array_equal(plain.values, ref)
    assert np.array_equal(stepped.values, ref)
    assert stepped.processing_bytes_h2d < plain.processing_bytes_h2d
