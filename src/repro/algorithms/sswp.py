"""Single-source widest path (bottleneck shortest path).

An extension algorithm demonstrating the framework's generality: the same
push-based frontier machinery computes the *widest* path — the maximum,
over paths from the source, of the minimum edge weight along the path
(max-min semiring instead of SSSP's min-plus).  Used in network-capacity
and routing analytics; data-movement behaviour is SSSP-like (weighted
edges, frontier-driven relaxation), so it exercises every engine the same
way the paper's four algorithms do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["SSWP", "SSWPState", "SOURCE_WIDTH"]

#: Width of the source vertex ("infinite" capacity into itself).
SOURCE_WIDTH = np.uint64(2**63)


@dataclass
class SSWPState(ProgramState):
    width: np.ndarray = None  # uint64, 0 = unreached


class SSWP(VertexProgram):
    """Widest path from ``source`` (default: the max-degree hub)."""

    name = "SSWP"
    variant = "weighted"
    atomics = True

    def __init__(self, source: int | None = None):
        self.source = source

    def _resolve_source(self, graph: CSRGraph) -> int:
        if self.source is not None:
            if not 0 <= self.source < graph.n_vertices:
                raise ValueError(f"source {self.source} out of range")
            return self.source
        from repro.graph.properties import best_source

        return best_source(graph)

    def init_state(self, graph: CSRGraph) -> SSWPState:
        self.validate_graph(graph)
        src = self._resolve_source(graph)
        width = np.zeros(graph.n_vertices, dtype=np.uint64)
        width[src] = SOURCE_WIDTH
        active = np.zeros(graph.n_vertices, dtype=bool)
        active[src] = True
        return SSWPState(active=active, width=width)

    def step(self, graph: CSRGraph, state: SSWPState) -> None:
        exp = state.frontier(graph)
        nxt = np.zeros(graph.n_vertices, dtype=bool)
        if exp.n_edges:
            dsts = graph.indices[exp.positions]
            # Path width through u over edge (u, v): min(width[u], w(u, v)).
            cand = np.minimum(
                state.width[exp.sources],
                graph.weights[exp.positions].astype(np.uint64),
            )
            old = state.width[dsts].copy()
            np.maximum.at(state.width, dsts, cand)
            widened = dsts[state.width[dsts] > old]
            if widened.size:
                nxt[widened] = True
        state.active = nxt
        state.iteration += 1

    def values(self, state: SSWPState) -> np.ndarray:
        return state.width
