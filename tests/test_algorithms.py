"""Correctness tests for the four vertex programs against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    PROGRAMS,
    ConnectedComponents,
    PageRank,
    SSSP,
    SSWP,
    make_program,
)
from repro.algorithms.base import ProgramTrace
from repro.algorithms.bfs import UNREACHED
from repro.algorithms.sssp import INF_DIST
from repro.algorithms.validate import (
    assert_allclose_ranks,
    reference_bfs_levels,
    reference_cc_labels,
    reference_pagerank,
    reference_sssp_distances,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    rmat_graph,
    star_graph,
)
from repro.graph.properties import best_source

from step_oracles import has_parallel_edges_and_self_loops, relax


class TestRegistry:
    def test_paper_programs_plus_extensions(self):
        assert {"BFS", "SSSP", "CC", "PR"} <= set(PROGRAMS)
        assert "SSWP" in PROGRAMS  # extension algorithm

    def test_make_program_case_insensitive(self):
        assert make_program("bfs").name == "BFS"

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            make_program("DFS")


class TestBFS:
    def test_path_levels(self):
        g = path_graph(6)
        levels = BFS(source=0).run_reference(g)
        assert np.array_equal(levels, np.arange(6, dtype=np.int32))

    def test_unreachable(self):
        g = path_graph(6)
        levels = BFS(source=3).run_reference(g)
        assert np.all(levels[:3] == UNREACHED)
        assert np.array_equal(levels[3:], [0, 1, 2])

    def test_star(self):
        levels = BFS(source=0).run_reference(star_graph(8))
        assert levels[0] == 0 and np.all(levels[1:] == 1)

    def test_cycle(self):
        levels = BFS(source=0).run_reference(cycle_graph(5))
        assert levels.max() == 4

    def test_default_source_is_hub(self, small_rmat):
        levels = BFS().run_reference(small_rmat)
        assert levels[best_source(small_rmat)] == 0

    def test_invalid_source(self, tiny_path):
        with pytest.raises(ValueError):
            BFS(source=99).init_state(tiny_path)

    def test_against_networkx(self, small_rmat, small_web, small_social):
        for g in (small_rmat, small_web, small_social):
            src = best_source(g)
            assert np.array_equal(
                BFS(source=src).run_reference(g), reference_bfs_levels(g, src)
            )

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_property_random_graphs(self, seed):
        g = erdos_renyi_graph(60, 300, seed=seed)
        src = seed % g.n_vertices
        assert np.array_equal(
            BFS(source=src).run_reference(g), reference_bfs_levels(g, src)
        )


class TestSSSP:
    def test_requires_weights(self, tiny_path):
        with pytest.raises(ValueError):
            SSSP(source=0).run_reference(tiny_path)

    def test_path_distances(self):
        g = path_graph(5).with_weights([2, 3, 4, 5])
        d = SSSP(source=0).run_reference(g)
        assert list(d) == [0, 2, 5, 9, 14]

    def test_unreachable_is_inf(self):
        g = path_graph(4).with_weights([1, 1, 1])
        d = SSSP(source=2).run_reference(g)
        assert d[0] == INF_DIST and d[1] == INF_DIST

    def test_grid_against_dijkstra(self, tiny_grid):
        g = tiny_grid.with_random_weights(seed=5)
        src = 0
        assert np.array_equal(
            SSSP(source=src).run_reference(g), reference_sssp_distances(g, src)
        )

    def test_against_dijkstra(self, small_rmat, small_social):
        for base in (small_rmat, small_social):
            g = base.with_random_weights(seed=6)
            src = best_source(g)
            assert np.array_equal(
                SSSP(source=src).run_reference(g), reference_sssp_distances(g, src)
            )

    def test_shorter_path_wins_over_fewer_hops(self):
        # 0→2 direct costs 10; 0→1→2 costs 2+3=5.
        g = CSRGraph.from_edges([0, 0, 1], [2, 1, 2], 3, weights=[10, 2, 3])
        d = SSSP(source=0).run_reference(g)
        assert d[2] == 5

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_property_random_graphs(self, seed):
        g = erdos_renyi_graph(50, 250, seed=seed).with_random_weights(seed=seed)
        src = seed % g.n_vertices
        assert np.array_equal(
            SSSP(source=src).run_reference(g), reference_sssp_distances(g, src)
        )


class TestCC:
    def test_undirected_components(self):
        g = CSRGraph.from_edges([0, 2, 4], [1, 3, 5], 6, directed=False)
        labels = ConnectedComponents().run_reference(g)
        assert list(labels) == [0, 0, 2, 2, 4, 4]

    def test_isolated_vertices_self_labelled(self):
        g = CSRGraph.from_edges([], [], 4)
        labels = ConnectedComponents().run_reference(g)
        assert list(labels) == [0, 1, 2, 3]

    def test_grid_single_component(self, tiny_grid):
        labels = ConnectedComponents().run_reference(tiny_grid)
        assert np.all(labels == 0)

    def test_directed_min_reaching_label(self):
        # 2→0: 0 adopts label 0? No: labels flow along edges, so 0 gets
        # min(0, 2)=0; 2 keeps 2 (nothing reaches it).
        g = CSRGraph.from_edges([2], [0], 3)
        labels = ConnectedComponents().run_reference(g)
        assert list(labels) == [0, 1, 2]

    def test_directed_chain_propagates(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        labels = ConnectedComponents().run_reference(g)
        assert list(labels) == [0, 0, 0]

    def test_against_references(self, small_rmat, small_web, small_social):
        for g in (small_rmat, small_web, small_social):
            assert np.array_equal(
                ConnectedComponents().run_reference(g), reference_cc_labels(g)
            )

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_property_random_graphs(self, seed):
        directed = bool(seed % 2)
        g = erdos_renyi_graph(40, 80, directed=directed, seed=seed)
        assert np.array_equal(
            ConnectedComponents().run_reference(g), reference_cc_labels(g)
        )


class TestPageRank:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)
        with pytest.raises(ValueError):
            PageRank(tol=0)

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 0)
        assert PageRank().run_reference(g).size == 0

    def test_uniform_on_cycle(self):
        g = cycle_graph(8)
        r = PageRank(tol=1e-6).run_reference(g)
        assert np.allclose(r, r[0])

    def test_mass_conservation_without_dangling(self):
        g = cycle_graph(10)
        r = PageRank(tol=1e-8).run_reference(g)
        assert r.sum() == pytest.approx(1.0, rel=1e-4)

    def test_hub_ranks_higher(self, small_rmat):
        r = PageRank(tol=1e-4).run_reference(small_rmat)
        hub = best_source(small_rmat)
        assert r[hub] > np.median(r) * 2

    def test_against_linear_system(self, small_rmat, small_web):
        for g in (small_rmat, small_web):
            r = PageRank(tol=1e-5).run_reference(g)
            assert_allclose_ranks(r, reference_pagerank(g), rtol=5e-3)

    def test_tighter_tol_closer_to_fixpoint(self, small_social):
        ref = reference_pagerank(small_social)
        loose = PageRank(tol=1e-2).run_reference(small_social)
        tight = PageRank(tol=1e-5).run_reference(small_social)
        err = lambda x: np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300))
        assert err(tight) < err(loose)

    @given(st.integers(0, 1000))
    @settings(max_examples=10)
    def test_property_random_graphs(self, seed):
        g = erdos_renyi_graph(40, 200, seed=seed)
        r = PageRank(tol=1e-6).run_reference(g)
        assert_allclose_ranks(r, reference_pagerank(g), rtol=1e-2)


class TestProgramContract:
    """Every program honours the VertexProgram contract."""

    @pytest.mark.parametrize("name", ["BFS", "SSSP", "CC", "PR"])
    def test_step_is_deterministic(self, name, small_social):
        g = small_social.with_random_weights() if name == "SSSP" else small_social
        runs = []
        for _ in range(2):
            p = make_program(name, **({"source": 0} if name in ("BFS", "SSSP") else {}))
            # Built directly: run_reference would hand back the memoized trace.
            runs.append(ProgramTrace(g, p, p.max_iterations))
        assert len(runs[0]) == len(runs[1])
        assert all(np.array_equal(runs[0].mask(i), runs[1].mask(i))
                   for i in range(len(runs[0]) + 1))
        assert np.array_equal(runs[0].values, runs[1].values)

    @pytest.mark.parametrize("name", ["BFS", "SSSP", "CC", "PR"])
    def test_iteration_counter_advances(self, name, tiny_grid):
        g = tiny_grid.with_random_weights() if name == "SSSP" else tiny_grid
        p = make_program(name, **({"source": 0} if name in ("BFS", "SSSP") else {}))
        state = p.init_state(g)
        p.step(g, state)
        assert state.iteration == 1

    def test_max_iterations_caps_pr(self, small_social):
        p = PageRank(tol=1e-12)
        p.max_iterations = 3
        state = p.init_state(small_social)
        while state.active.any() and not p.done(state):
            p.step(small_social, state)
        assert state.iteration == 3


class TestNextFrontierByScatter:
    """``step`` scatters raw destination ids; superstep by superstep it must
    leave the values and the next frontier of the per-edge definition
    (``tests/step_oracles.py::relax``) on a graph that does produce
    duplicates."""

    @pytest.mark.parametrize("make,kind", [
        (lambda src: BFS(source=src), "BFS"),
        (lambda src: SSSP(source=src), "SSSP"),
        (lambda src: SSSP(source=src, delta=3), "SSSP"),
        (lambda src: ConnectedComponents(), "CC"),
        (lambda src: SSWP(source=src), "SSWP"),
    ], ids=["BFS", "SSSP", "delta-SSSP", "CC", "SSWP"])
    def test_every_superstep_equals_the_dedupe_oracle(self, make, kind, small_rmat):
        graph = small_rmat
        if kind in ("SSSP", "SSWP"):
            graph = graph.with_random_weights(high=8)
        assert has_parallel_edges_and_self_loops(graph)
        program = make(best_source(graph))
        state = program.init_state(graph)
        while state.active.any():
            ref_values = program.values(state).copy()
            ref_next = relax(kind, graph, ref_values, state.active,
                             state.iteration)
            # Delta-stepping parks part of the next frontier in `pending`.
            pending = getattr(state, "pending", None)
            if pending is not None:
                ref_next |= pending
            program.step(graph, state)
            assert np.array_equal(program.values(state), ref_values)
            nxt = state.active if pending is None else state.active | state.pending
            assert np.array_equal(nxt, ref_next)
        assert state.iteration > 2
