"""k-core decomposition by peeling — a sixth algorithm for the framework.

Coreness of a vertex: the largest k such that it belongs to a subgraph
where every vertex has degree ≥ k.  The classic peeling computation maps
cleanly onto the push model: the frontier is the set of vertices being
*removed* this superstep, and each removal pushes a degree decrement to
its neighbors — possibly knocking them below the threshold and into the
next frontier.  When a level drains, the threshold k advances.

Like CC, it is defined on undirected graphs, so it streams the
symmetrized view (``variant = "sym"``).  Data-movement-wise it is interesting for
out-of-memory engines: activity starts at the sparse fringe (low-degree
vertices) and ends at the dense core — the reverse of a BFS's profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["KCore", "KCoreState"]


@dataclass
class KCoreState(ProgramState):
    remaining_degree: np.ndarray = None  # int64
    core: np.ndarray = None  # int64, valid once removed
    removed: np.ndarray = None  # bool
    k: int = 1


class KCore(VertexProgram):
    """Peeling k-core decomposition (undirected graphs)."""

    name = "KCORE"
    variant = "sym"
    atomics = True  # degree decrements are scatter-atomics

    def validate_graph(self, graph: CSRGraph) -> None:
        super().validate_graph(graph)
        if graph.directed:
            raise ValueError(
                "k-core is defined on undirected graphs; run it on the symmetrized view"
            )

    def _advance(self, state: KCoreState) -> None:
        """Move k forward until some unremoved vertex falls below it."""
        alive = ~state.removed
        if not alive.any():
            state.active = np.zeros(state.removed.size, dtype=bool)
            return
        while True:
            below = alive & (state.remaining_degree < state.k)
            if below.any():
                state.active = below
                return
            state.k += 1

    def init_state(self, graph: CSRGraph) -> KCoreState:
        self.validate_graph(graph)
        n = graph.n_vertices
        state = KCoreState(
            active=np.zeros(n, dtype=bool),
            remaining_degree=graph.out_degree().astype(np.int64).copy(),
            core=np.zeros(n, dtype=np.int64),
            removed=np.zeros(n, dtype=bool),
            k=1,
        )
        if n:
            self._advance(state)
        return state

    def step(self, graph: CSRGraph, state: KCoreState) -> None:
        removing = state.active
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        # A vertex removed while the threshold is k has coreness k - 1.
        state.core[removing] = state.k - 1
        state.removed |= removing
        if exp.n_edges:
            dsts = graph.indices[exp.positions]
            dec = np.bincount(dsts, minlength=graph.n_vertices)
            state.remaining_degree -= dec
        # Newly sub-threshold survivors peel next; else advance k.
        nxt = ~state.removed & (state.remaining_degree < state.k)
        if nxt.any():
            state.active = nxt
        else:
            self._advance(state)
        state.iteration += 1

    def values(self, state: KCoreState) -> np.ndarray:
        return state.core
