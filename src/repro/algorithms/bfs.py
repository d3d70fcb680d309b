"""Breadth-first search.

Level-synchronous push BFS: the frontier pushes ``level + 1`` to every
unvisited out-neighbor.  Each vertex's edges are read in exactly one
iteration — the reason the paper finds "basically no data reuse in the
Static Region in BFS" (§4.3) yet still measures a saving (the static slice
needs no transfer at all the one time it *is* read).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["BFS", "BFSState", "UNREACHED"]

#: Level marker for vertices never reached.
UNREACHED = np.int32(-1)


@dataclass
class BFSState(ProgramState):
    levels: np.ndarray = None  # int32, -1 = unreached


class BFS(VertexProgram):
    """BFS from ``source`` (default: chosen by the engine via ``best_source``)."""

    name = "BFS"
    variant = "plain"
    atomics = False

    def __init__(self, source: int | None = None):
        self.source = source

    def _resolve_source(self, graph: CSRGraph) -> int:
        if self.source is not None:
            if not 0 <= self.source < graph.n_vertices:
                raise ValueError(f"source {self.source} out of range")
            return self.source
        from repro.graph.properties import best_source

        return best_source(graph)

    def init_state(self, graph: CSRGraph) -> BFSState:
        src = self._resolve_source(graph)
        levels = np.full(graph.n_vertices, UNREACHED, dtype=np.int32)
        levels[src] = 0
        active = np.zeros(graph.n_vertices, dtype=bool)
        active[src] = True
        return BFSState(active=active, levels=levels)

    def step(self, graph: CSRGraph, state: BFSState) -> None:
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        nxt = np.zeros(graph.n_vertices, dtype=bool)
        if exp.n_edges:
            dsts = graph.indices[exp.positions]
            fresh = dsts[state.levels[dsts] == UNREACHED]
            if fresh.size:
                # Idempotent discovery: duplicates scatter the same constant.
                state.levels[fresh] = state.iteration + 1
                nxt[fresh] = True
        state.active = nxt
        state.iteration += 1

    def values(self, state: BFSState) -> np.ndarray:
        return state.levels
