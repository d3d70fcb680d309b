"""The program trace: one ``step`` loop per (graph, program, cap), replayed
by every engine.

``Engine.run`` never calls ``program.step``: it replays the frontiers of
:func:`~repro.algorithms.base.program_trace`, which the graph memoizes.
These tests pin the exact ``step`` count of a grid pass and of a warm load
test, the trace against an independent loop for every program (for the
fused traversals, the OR of the stepped single-source frontiers,
``tests/step_oracles.py``),
the read-only replay masks and the memo's byte budget.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import PROGRAMS, make_program
from repro.algorithms import base
from repro.algorithms.base import ProgramTrace, VertexProgram, program_trace
from repro.engines.base import Engine
from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec
from repro.harness.experiments import clear_dataset_cache, make_workload
from repro.runner import RunSpec, run_grid
from repro.serve import quick_config, run_load_test
from repro.serve.batching import make_batched

from step_oracles import fused_trace, record_active_trace

SCALE = 5e-5

#: ``bench_e2e``'s ``paper_grid`` at ``--smoke``: 2 datasets x 2 algorithms
#: x the paper's 4 engines.
SMOKE_SPECS = [RunSpec(d, a, e, scale=SCALE)
               for d in ("FK", "GS") for a in ("BFS", "CC")
               for e in ("PT", "UVM", "Subway", "Ascetic")]


def _program_classes(cls=VertexProgram):
    for sub in cls.__subclasses__():
        yield sub
        yield from _program_classes(sub)


@pytest.fixture
def step_calls(monkeypatch):
    """Count every ``step`` call of every program class, the way
    ``bench_e2e/layers.py`` wraps them."""
    calls = []
    for cls in _program_classes():
        if "step" in vars(cls):
            def counted(self, graph, state, _step=vars(cls)["step"]):
                calls.append(type(self).__name__)
                return _step(self, graph, state)
            monkeypatch.setattr(cls, "step", counted)
    return calls


class TestStepCalls:
    def test_a_grid_pass_steps_each_pair_once_and_the_next_pass_never(
            self, step_calls):
        clear_dataset_cache()
        first = run_grid(SMOKE_SPECS, jobs=1, cache=None)
        assert all(cell.ok for cell in first.cells)
        # 41 distinct supersteps over the 4 (dataset, algorithm) pairs:
        # one build each, where every engine used to step on its own (164).
        assert len(step_calls) == 41
        assert len(step_calls) == sum(
            cell.result.iterations for cell in first.cells) // 4
        second = run_grid(SMOKE_SPECS, jobs=1, cache=None)
        assert len(step_calls) == 41
        for a, b in zip(first.cells, second.cells):
            assert np.array_equal(a.result.values, b.result.values)
            assert a.result.elapsed_seconds == b.result.elapsed_seconds

    def test_a_warm_load_test_builds_no_trace(self, monkeypatch):
        # Fused dispatches compose memoized single-source traces, so a
        # second pass over the same sources steps nothing.  80 requests
        # draw more distinct (graph, sources) batches than eight per graph:
        # a memo of fused traces under a count bound would rebuild some.
        config = replace(quick_config(0), n_requests=80)
        first = run_load_test(config)
        built = []
        init = ProgramTrace.__init__

        def counted(self, graph, program, cap):
            built.append(type(program).__name__)
            init(self, graph, program, cap)

        monkeypatch.setattr(ProgramTrace, "__init__", counted)
        second = run_load_test(config)
        assert built == []
        assert second.run_digest() == first.run_digest()


def _programs(graph, sym, rev):
    """``id -> (graph, program)`` for every registered program, plus the
    batched traversals and delta-stepping SSSP."""
    weighted = graph.with_random_weights(high=8)
    src = best_source(graph)
    hubs = np.argsort(graph.out_degree(), kind="stable")[-3:].tolist()
    cases = {
        "BFS": (graph, make_program("BFS", source=src)),
        "SSSP": (weighted, make_program("SSSP", source=src)),
        "delta-SSSP": (weighted, make_program("SSSP", source=src, delta=3)),
        "CC": (graph, make_program("CC")),
        "PR": (graph, make_program("PR", tol=1e-2)),
        "SSWP": (weighted, make_program("SSWP", source=src)),
        "PR-PULL": (rev, make_program("PR-PULL", tol=1e-2)),
        "KCORE": (sym, make_program("KCORE")),
        "BatchedBFS": (graph, make_batched("BFS", hubs)),
        "BatchedSSSP": (weighted, make_batched("SSSP", hubs)),
    }
    assert set(PROGRAMS) <= set(cases)
    return cases


class TestTraceAgainstOracle:
    @pytest.mark.parametrize("cap", [0, 1, 3, None])
    @pytest.mark.parametrize("name", ["BFS", "SSSP", "delta-SSSP", "CC", "PR",
                                      "SSWP", "PR-PULL", "KCORE",
                                      "BatchedBFS", "BatchedSSSP"])
    def test_masks_iterations_and_values(self, name, cap, small_social):
        graph, program = _programs(small_social, small_social.symmetrized(),
                                   small_social.reverse())[name]
        if name.startswith("Batched"):
            oracle = fused_trace(graph, name[len("Batched"):],
                                 program.sources, cap)
        else:
            oracle = record_active_trace(graph, program, cap)
        trace = program_trace(graph, program, cap)
        assert len(trace) == len(oracle.masks)
        if cap is not None:
            assert len(trace) <= cap
        for i, mask in enumerate(oracle.masks):
            state = trace.state(i)
            assert np.array_equal(state.active, mask)
            assert state.iteration == oracle.iteration_numbers[i]
        assert trace.iterations == oracle.iteration_numbers[-1]
        assert np.array_equal(trace.values, oracle.values)
        assert trace.values.dtype == oracle.values.dtype

    def test_equal_programs_share_one_trace(self, small_social):
        a = program_trace(small_social, make_program("BFS", source=3))
        assert program_trace(small_social, make_program("BFS", source=3)) is a
        assert program_trace(small_social, make_program("BFS", source=4)) is not a
        assert program_trace(small_social, make_program("BFS", source=3),
                             cap=2) is not a


class _FrontierWriter(Engine):
    """An engine that (wrongly) edits the frontier it is handed."""

    name = "FrontierWriter"

    def _prepare(self, gpu, graph, program):
        pass

    def _iteration(self, gpu, graph, program, state):
        state.active[0] = True


class TestReplayMasks:
    def test_an_engine_cannot_write_the_frontier(self, small_social):
        engine = _FrontierWriter(spec=GPUSpec(memory_bytes=1 << 30))
        with pytest.raises(ValueError, match="read-only"):
            engine.run(small_social, make_program("CC"))

    def test_trace_values_are_read_only_and_results_are_copies(self, small_social):
        program = make_program("CC")
        trace = program_trace(small_social, program)
        with pytest.raises(ValueError):
            trace.values[0] = -1
        values = program.run_reference(small_social)
        values[0] = -1  # the caller's copy, not the trace's
        assert trace.values[0] != -1


def _kept_sources(graph):
    return [dict(key[1])["source"] for key in graph._traces]


class TestMemo:
    def test_a_graph_keeps_at_most_the_bound(self, monkeypatch):
        assert base.TRACE_BYTES_PER_GRAPH == 16 << 20
        graph = make_workload("GS", "BFS", scale=SCALE).graph
        graph._traces.clear()
        traces = [program_trace(graph, make_program("BFS", source=source))
                  for source in range(100)]
        assert len(graph._traces) == 100  # 16 MiB holds them all here
        # Re-using source 0 makes it the most recently used.
        assert program_trace(graph, make_program("BFS", source=0)) is traces[0]
        budget = sum(t.nbytes for t in traces[-5:])
        monkeypatch.setattr(base, "TRACE_BYTES_PER_GRAPH", budget)
        program_trace(graph, make_program("BFS", source=100))
        # Least recently used out first: what stays is the newest trace and
        # the most recent ones before it that fit in the budget.
        kept = _kept_sources(graph)
        assert kept[-2:] == [0, 100]
        assert kept == [*range(100 - len(kept) + 2, 100), 0, 100]
        assert sum(t.nbytes for t in graph._traces.values()) <= budget
        assert len(kept) >= 4

    def test_the_newest_trace_stays_even_over_the_budget(self, monkeypatch):
        graph = make_workload("GS", "BFS", scale=SCALE).graph
        monkeypatch.setattr(base, "TRACE_BYTES_PER_GRAPH", 1)
        trace = program_trace(graph, make_program("BFS", source=3))
        assert trace.nbytes > 1
        assert _kept_sources(graph) == [3]
        assert program_trace(graph, make_program("BFS", source=3)) is trace
        program_trace(graph, make_program("BFS", source=4))
        assert _kept_sources(graph) == [4]

    def test_clearing_the_dataset_cache_drops_the_traces(self):
        clear_dataset_cache()
        w = make_workload("GS", "SSSP", scale=SCALE)
        assert make_workload("GS", "SSSP", scale=SCALE).graph is w.graph
        program_trace(w.graph, w.fresh_program())
        assert len(w.graph._traces) == 1
        ref = weakref.ref(w.graph)
        del w
        clear_dataset_cache()
        gc.collect()
        assert ref() is None
        fresh = make_workload("GS", "SSSP", scale=SCALE).graph
        assert len(fresh._traces) == 0

    def test_a_pickled_graph_leaves_its_traces_behind(self, small_social):
        import pickle

        program_trace(small_social, make_program("CC"))
        assert small_social._traces
        assert len(pickle.loads(pickle.dumps(small_social))._traces) == 0
