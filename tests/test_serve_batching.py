"""Batched-traversal fusion: B=1 bit-parity and multi-source row parity."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.serve.batching import BatchedBFS, BatchedSSSP, make_batched

from conftest import make_spec_for
from dedupe_step_oracles import dedupe_relax, has_parallel_edges_and_self_loops


def drive(program, graph):
    """Run a program's superstep loop to quiescence (no engine)."""
    state = program.init_state(graph)
    while state.active.any() and not program.done(state):
        program.step(graph, state)
    return state


class TestFactory:
    def test_make_batched_dispatch(self):
        assert isinstance(make_batched("bfs", [0]), BatchedBFS)
        assert isinstance(make_batched("SSSP", [0, 1]), BatchedSSSP)
        with pytest.raises(ValueError):
            make_batched("CC", [0])
        with pytest.raises(ValueError):
            make_batched("BFS", [])

    def test_name_carries_batch_size(self):
        assert make_batched("BFS", [0, 3, 5]).name == "BFSx3"
        assert make_batched("SSSP", [2]).batch_size == 1

    def test_source_range_checked(self, tiny_path):
        with pytest.raises(ValueError):
            drive(BatchedBFS([99]), tiny_path)


class TestSingleSourceParity:
    """With B == 1 every array equals the single-source program's."""

    def test_bfs_bit_parity(self, small_web):
        src = 7
        ref = make_program("BFS", source=src)
        ref_state = drive(ref, small_web)
        batched = BatchedBFS([src])
        b_state = drive(batched, small_web)
        assert np.array_equal(batched.values(b_state)[0],
                              ref.values(ref_state))
        assert b_state.iteration == ref_state.iteration
        assert b_state.edges_relaxed == ref_state.edges_relaxed

    def test_sssp_bit_parity(self, small_web):
        g = small_web.with_random_weights(high=3)
        src = 7
        ref = make_program("SSSP", source=src)
        ref_state = drive(ref, g)
        batched = BatchedSSSP([src])
        b_state = drive(batched, g)
        assert np.array_equal(batched.values(b_state)[0],
                              ref.values(ref_state))
        assert b_state.iteration == ref_state.iteration
        assert b_state.edges_relaxed == ref_state.edges_relaxed


class TestMultiSourceParity:
    """Row i of a fused run equals an independent run from sources[i]."""

    def test_bfs_rows_match_independent_runs(self, small_web):
        sources = [7, 0, 113]
        batched = BatchedBFS(sources)
        b_state = drive(batched, small_web)
        values = batched.values(b_state)
        assert values.shape == (3, small_web.n_vertices)
        for row, src in enumerate(sources):
            ref = make_program("BFS", source=src)
            assert np.array_equal(values[row], ref.values(drive(ref, small_web)))

    def test_sssp_rows_match_independent_runs(self, small_web):
        g = small_web.with_random_weights(high=3)
        sources = [7, 113]
        batched = BatchedSSSP(sources)
        b_state = drive(batched, g)
        values = batched.values(b_state)
        for row, src in enumerate(sources):
            ref = make_program("SSSP", source=src)
            assert np.array_equal(values[row], ref.values(drive(ref, g)))

    def test_union_edges_charged_once(self, small_web):
        # The fused run reads at most the sum of the individual runs'
        # edges, and at least the largest individual run's (union effect).
        sources = [7, 113]
        per_source = []
        for src in sources:
            ref = make_program("BFS", source=src)
            st = drive(ref, small_web)
            per_source.append(st.edges_relaxed)
        fused = drive(BatchedBFS(sources), small_web)
        assert fused.edges_relaxed <= sum(per_source)
        assert fused.edges_relaxed >= max(per_source)


class TestNextFrontierByScatter:
    """Each row of a fused superstep equals the deduplicating single-source
    step (``tests/dedupe_step_oracles.py``) on that row's own frontier."""

    @pytest.mark.parametrize("algo", ["BFS", "SSSP"])
    def test_every_superstep_equals_the_dedupe_oracle(self, algo, small_rmat):
        graph = small_rmat
        if algo == "SSSP":
            graph = graph.with_random_weights(high=8)
        assert has_parallel_edges_and_self_loops(graph)
        sources = np.argsort(graph.out_degree(), kind="stable")[-3:].tolist()
        program = make_batched(algo, sources)
        state = program.init_state(graph)
        while state.active.any():
            ref_values = state.values_2d.copy()
            ref_fronts = np.array([
                dedupe_relax(algo, graph, ref_values[row], state.fronts[row],
                             state.iteration)
                for row in range(len(sources))])
            program.step(graph, state)
            assert np.array_equal(state.values_2d, ref_values)
            assert np.array_equal(state.fronts, ref_fronts)
            assert np.array_equal(state.active, ref_fronts.any(axis=0))
        assert state.iteration > 2


class TestUnderEngines:
    def test_batched_bfs_runs_under_ascetic(self, small_web):
        from repro.core.ascetic import AsceticEngine

        sources = [7, 113]
        spec = make_spec_for(small_web)
        engine = AsceticEngine(spec=spec, data_scale=1e-2)
        result = engine.run(small_web, BatchedBFS(sources))
        for row, src in enumerate(sources):
            ref = make_program("BFS", source=src)
            assert np.array_equal(result.values[row],
                                  ref.values(drive(ref, small_web)))
        assert result.elapsed_seconds > 0
