"""Batched-traversal fusion: the composed trace against its definition,
B=1 bit-parity and multi-source row parity under an engine."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.algorithms import make_program
from repro.algorithms.base import program_trace
from repro.algorithms.bfs import BFS, UNREACHED
from repro.algorithms.sssp import INF_DIST, SSSP
from repro.engines.partition_based import PartitionEngine
from repro.graph.generators import rmat_graph
from repro.serve.batching import FusedTraversal, make_batched

from conftest import make_spec_for
from step_oracles import fused_trace, has_parallel_edges_and_self_loops, relax


def run(graph, program):
    """One PT engine run (the simplest engine that replays a trace)."""
    return PartitionEngine(spec=make_spec_for(graph)).run(graph, program)


def charged_edges(result) -> int:
    """Active edges the engine charged over the run — what each superstep
    streams."""
    return sum(rec.n_active_edges for rec in result.per_iteration)


class TestFactory:
    def test_make_batched_dispatch(self):
        assert make_batched("bfs", [0]) == FusedTraversal(BFS, (0,))
        assert make_batched("SSSP", [0, 1]).single is SSSP
        with pytest.raises(ValueError):
            make_batched("CC", [0])
        with pytest.raises(ValueError):
            make_batched("BFS", [])

    def test_name_carries_batch_size(self):
        fused = make_batched("SSSP", [0, 3, 5])
        assert fused.name == "SSSPx3"
        assert (fused.variant, fused.atomics, fused.max_iterations) == \
            (SSSP.variant, SSSP.atomics, SSSP.max_iterations)
        assert len(make_batched("BFS", [2]).sources) == 1

    def test_source_range_checked(self, tiny_path):
        with pytest.raises(ValueError, match="out of range"):
            program_trace(tiny_path, make_batched("BFS", [3, 99]))


#: The 1024-vertex RMAT graph of ``small_rmat`` (171 vertices without
#: out-edges, parallel edges and self-loops kept), and its weighted view.
RMAT = rmat_graph(10, 12000, seed=44)
RMAT_WEIGHTED = RMAT.with_random_weights(high=8)
SINK = int(np.flatnonzero(RMAT.out_degree() == 0)[0])
HUB = int(np.argmax(RMAT.out_degree()))


class TestComposedTraceAgainstOracle:
    """The composed trace equals its definition bit for bit: superstep i's
    frontier is the OR of the single-source programs' stepped from
    ``init_state``, the run lasts as long as the longest, row b holds
    source b's values (``tests/step_oracles.py::fused_trace``)."""

    @given(algo=st.sampled_from(["BFS", "SSSP"]),
           sources=st.lists(st.integers(0, RMAT.n_vertices - 1),
                            min_size=1, max_size=4),
           cap=st.sampled_from([0, 1, 3, None]))
    @example(algo="BFS", sources=[HUB], cap=None)
    @example(algo="SSSP", sources=[HUB, 7, HUB], cap=None)
    @example(algo="BFS", sources=[SINK, HUB], cap=None)
    @example(algo="SSSP", sources=[SINK], cap=3)
    def test_composed_equals_stepped(self, algo, sources, cap):
        graph = RMAT if algo == "BFS" else RMAT_WEIGHTED
        oracle = fused_trace(graph, algo, sources, cap)
        trace = program_trace(graph, make_batched(algo, sources), cap)
        assert len(trace) == len(oracle.masks)
        for i, mask in enumerate(oracle.masks):
            state = trace.state(i)
            assert np.array_equal(state.active, mask)
            assert state.iteration == oracle.iteration_numbers[i]
        assert trace.iterations == oracle.iteration_numbers[-1]
        assert np.array_equal(trace.values, oracle.values)
        assert trace.values.dtype == oracle.values.dtype

    def test_fused_and_lone_runs_share_the_single_source_traces(self):
        graph = RMAT_WEIGHTED
        lone = program_trace(graph, make_program("SSSP", source=HUB))
        fused = program_trace(graph, make_batched("SSSP", [HUB, HUB]))
        assert fused is not lone
        assert np.array_equal(fused.values, np.stack([lone.values] * 2))
        assert program_trace(graph, make_program("SSSP", source=HUB)) is lone


class TestSingleSourceParity:
    """With B == 1 an engine run equals the single-source program's."""

    @staticmethod
    def assert_bit_parity(algo, graph, src=7):
        ref = run(graph, make_program(algo, source=src))
        fused = run(graph, make_batched(algo, [src]))
        assert fused.algorithm == f"{algo}x1"
        assert np.array_equal(fused.values[0], ref.values)
        assert fused.iterations == ref.iterations
        assert charged_edges(fused) == charged_edges(ref)
        assert fused.elapsed_seconds == ref.elapsed_seconds

    def test_bfs_bit_parity(self, small_web):
        self.assert_bit_parity("BFS", small_web)

    def test_sssp_bit_parity(self, small_web):
        self.assert_bit_parity("SSSP", small_web.with_random_weights(high=3))


class TestMultiSourceParity:
    """Row i of a fused run equals an independent run from sources[i]."""

    def test_bfs_rows_match_independent_runs(self, small_web):
        sources = [7, 0, 113]
        values = run(small_web, make_batched("BFS", sources)).values
        assert values.shape == (3, small_web.n_vertices)
        for row, src in enumerate(sources):
            ref = run(small_web, make_program("BFS", source=src))
            assert np.array_equal(values[row], ref.values)

    def test_sssp_rows_match_independent_runs(self, small_web):
        g = small_web.with_random_weights(high=3)
        sources = [7, 113]
        values = run(g, make_batched("SSSP", sources)).values
        for row, src in enumerate(sources):
            ref = run(g, make_program("SSSP", source=src))
            assert np.array_equal(values[row], ref.values)

    def test_union_edges_charged_once(self, small_web):
        # The fused run reads at most the sum of the individual runs'
        # edges, and at least the largest individual run's (union effect).
        sources = [7, 113]
        per_source = [charged_edges(run(small_web, make_program("BFS", source=s)))
                      for s in sources]
        fused = charged_edges(run(small_web, make_batched("BFS", sources)))
        assert fused <= sum(per_source)
        assert fused >= max(per_source)


class TestNextFrontierByScatter:
    """Each superstep of a composed trace equals the per-edge superstep
    (``tests/step_oracles.py::relax``) applied to every row's own frontier,
    OR-ed."""

    @pytest.mark.parametrize("algo", ["BFS", "SSSP"])
    def test_every_superstep_equals_the_dedupe_oracle(self, algo, small_rmat):
        graph = small_rmat
        if algo == "SSSP":
            graph = graph.with_random_weights(high=8)
        assert has_parallel_edges_and_self_loops(graph)
        sources = np.argsort(graph.out_degree(), kind="stable")[-3:].tolist()
        trace = program_trace(graph, make_batched(algo, sources))
        fill, dtype = (UNREACHED, np.int32) if algo == "BFS" else (INF_DIST, np.uint64)
        values = np.full((3, graph.n_vertices), fill, dtype=dtype)
        fronts = np.zeros((3, graph.n_vertices), dtype=bool)
        for row, src in enumerate(sources):
            values[row, src] = 0
            fronts[row, src] = True
        for i in range(len(trace)):
            assert np.array_equal(trace.mask(i), fronts.any(axis=0))
            fronts = np.array([relax(algo, graph, values[row], fronts[row], i)
                               for row in range(len(sources))])
        assert not fronts.any() and not trace.mask(len(trace)).any()
        assert np.array_equal(trace.values, values)
        assert len(trace) > 2


class TestUnderEngines:
    def test_batched_bfs_runs_under_ascetic(self, small_web):
        from repro.core.ascetic import AsceticEngine

        sources = [7, 113]
        spec = make_spec_for(small_web)
        engine = AsceticEngine(spec=spec, data_scale=1e-2)
        result = engine.run(small_web, make_batched("BFS", sources))
        for row, src in enumerate(sources):
            ref = make_program("BFS", source=src).run_reference(small_web)
            assert np.array_equal(result.values[row], ref)
        assert result.elapsed_seconds > 0
