"""Ablation — vertex-layout sensitivity of the Static Region.

§5 finds the *initial fill choice* barely matters — on KONECT-shuffled
datasets, where every layout is statistically the same.  This bench probes
the stronger statement: the *layout itself* is a lever.  A hubs-first
(degree-ordered) edge array makes the front-filled Static Region a hot-set
cache; a shuffle is the neutral control; BFS order helps wave algorithms.
"""

from repro.algorithms import make_program
from repro.analysis.report import format_table
from repro.core.ascetic import AsceticEngine
from repro.graph.reorder import bfs_order, degree_order, random_order, relabel
from repro.harness.experiments import make_workload

from conftest import report

ORDERINGS = ("as-loaded", "shuffled", "degree", "bfs")


def test_reordering_static_region(benchmark):
    # Direct runs: a relabelled graph is not a dataset a spec can name.
    w = make_workload("FK", "PR")

    def layout(name):
        g = w.graph
        if name == "shuffled":
            return relabel(g, random_order(g, seed=11))
        if name == "degree":
            return relabel(g, degree_order(g))
        if name == "bfs":
            return relabel(g, bfs_order(g))
        return g

    def run():
        out = {}
        for name in ORDERINGS:
            g = layout(name)
            res = AsceticEngine(spec=w.spec, data_scale=w.scale, fill="front",
                                adaptive=False).run(g, make_program("PR", tol=1e-2))
            out[name] = res
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, f"{r.elapsed_seconds:.1f}s",
         f"{r.processing_bytes_h2d / 1e9:.1f}GB",
         f"{r.extra['static_edges'] / max(r.extra['static_edges'] + r.extra['ondemand_edges'], 1):.0%}"]
        for name, r in results.items()
    ]
    report(
        "reordering",
        "Layout ablation — Ascetic front-fill under vertex reorderings (PR on FK)",
        format_table(["ordering", "time", "processing H2D", "static hit share"], rows),
    )

    # The measured outcome *strengthens* §5's conjecture: when per-iteration
    # activity is spread evenly (PR), even aggressive relayouts move the
    # needle by ~10 % at most — the Static Region's benefit comes from its
    # *size*, not from which bytes it holds.  (Degree order actually pays a
    # small penalty: covering few mega-hubs leaves more on-demand *vertices*
    # and their request structures.)
    times = [r.elapsed_seconds for r in results.values()]
    assert (max(times) - min(times)) / min(times) < 0.15
    xfers = [r.processing_bytes_h2d for r in results.values()]
    assert (max(xfers) - min(xfers)) / min(xfers) < 0.25
    # And the computation is layout-invariant (graph isomorphism).
    for name in ORDERINGS:
        assert results[name].iterations == results["as-loaded"].iterations
