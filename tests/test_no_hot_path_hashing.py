"""Guard: no NumPy set routine is reachable from a lean iteration.

On NumPy 2.x ``np.unique`` of an integer array hashes and then sorts — tens
of milliseconds for 160 K sorted ids against 0.07 ms for the monotonicity
check (table in ``docs/performance.md``) — and before this guard half of a
``paper_grid`` pass was spent deduplicating page sets that were already
duplicate-free and frontier ids that fed an idempotent scatter.  The rule: a
vertex set is a boolean mask, a page set is a sorted id array, and nothing
per-iteration calls ``np.unique`` / ``union1d`` / ``isin`` and friends.

Graphs and reference values are built first — graph construction may dedupe
edges, and that is set-up — then the routines are rebound to raise while
every registered engine runs every algorithm and both fused traversals
compose a three-superstep trace from freshly stepped single-source ones;
values are checked afterwards.  ``analysis/reuse.py``
(Fig. 2 post-processing) is off this path and keeps its calls.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.algorithms import validate
from repro.algorithms.base import program_trace
from repro.engines import registry
from repro.graph.generators import rmat_graph
from repro.graph.properties import best_source
from repro.harness.experiments import make_workload, run_workload
from repro.serve.batching import make_batched

SCALE = 5e-5
MEMORY_RATIO = 0.3
ALGOS = ("BFS", "SSSP", "CC", "PR", "SSWP")
ENGINE_OPTS = {"Sharded": {"devices": 4, "inner": "Ascetic"}}
SET_ROUTINES = ("unique", "union1d", "intersect1d", "setdiff1d", "setxor1d",
                "isin", "in1d", "unique_values", "unique_counts",
                "unique_inverse", "unique_all")


@contextmanager
def set_routines_forbidden():
    """Rebind every NumPy set routine this NumPy has to raise."""
    def forbid(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"np.{name} called on the iteration path")
        return raiser

    with pytest.MonkeyPatch.context() as patch:
        for name in SET_ROUTINES:
            if hasattr(np, name):
                patch.setattr(np, name, forbid(name))
        yield


def reference_values(graph, algo: str) -> np.ndarray:
    if algo == "PR":
        return validate.reference_pagerank(graph)
    if algo == "CC":
        return validate.reference_cc_labels(graph)
    reference = {"BFS": validate.reference_bfs_levels,
                 "SSSP": validate.reference_sssp_distances,
                 "SSWP": validate.reference_sswp_widths}[algo]
    return reference(graph, best_source(graph))


@pytest.mark.parametrize("algo", ALGOS)
def test_no_engine_calls_a_set_routine(algo):
    graph = make_workload("GS", algo, scale=SCALE).graph
    workload = make_workload("GS", algo, scale=SCALE,
                             memory_bytes=int(MEMORY_RATIO * graph.dataset_bytes))
    expected = reference_values(workload.graph, algo)
    with set_routines_forbidden():
        values = {engine: run_workload(workload, engine,
                                       **ENGINE_OPTS.get(engine, {})).values
                  for engine in registry.available()}
    assert len(values) >= 6
    for engine, got in values.items():
        if algo == "PR":
            validate.assert_allclose_ranks(got, expected, rtol=2e-2)
        else:
            assert np.array_equal(got, expected), engine


@pytest.mark.parametrize("algo", ("BFS", "SSSP"))
def test_no_batched_superstep_calls_a_set_routine(algo):
    graph = make_workload("GS", algo, scale=SCALE).graph
    sources = np.argsort(graph.out_degree(), kind="stable")[-4:].tolist()
    graph._traces.clear()  # so every single-source superstep runs guarded
    with set_routines_forbidden():
        trace = program_trace(graph, make_batched(algo, sources), cap=3)
    assert trace.iterations == 3 and trace.mask(3).any()


def test_chunk_map_does_not_call_a_set_routine():
    graph = rmat_graph(8, 3000, seed=5)
    lo = graph.indptr[:-1] * graph.bytes_per_edge // 3
    hi = (graph.indptr[1:] * graph.bytes_per_edge - 1) // 3 + 1
    has_edges = graph.indptr[1:] > graph.indptr[:-1]
    with set_routines_forbidden():
        seg_bounds = graph.chunk_map(3).seg_bounds
    assert np.array_equal(seg_bounds,
                          np.union1d(lo[has_edges], hi[has_edges]))
