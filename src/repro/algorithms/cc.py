"""Connected components via min-label propagation.

Every vertex starts labelled with its own id and all vertices start active;
active vertices push their label with atomic min along out-edges, and any
vertex whose label drops becomes active.  On an undirected (symmetrized)
graph this converges to connected components with the component's minimum
vertex id as the label — the classic GPU CC (HookShrink-free variant used by
push frameworks).

On a *directed* graph the fixpoint assigns each vertex the minimum label
that can reach it along directed paths.  The paper runs CC on its directed
web crawls as stored; we match that behaviour and validate directed runs
against a host-side fixpoint of the same recurrence (undirected runs are
validated against networkx components).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["ConnectedComponents", "CCState"]


@dataclass
class CCState(ProgramState):
    labels: np.ndarray = None  # int64


class ConnectedComponents(VertexProgram):
    """Min-label propagation over the stored arcs (see module docstring).

    For weakly connected components of a directed graph, run it on the
    symmetrized view.
    """

    name = "CC"
    variant = "plain"
    atomics = True

    def init_state(self, graph: CSRGraph) -> CCState:
        labels = np.arange(graph.n_vertices, dtype=np.int64)
        active = np.ones(graph.n_vertices, dtype=bool)
        return CCState(active=active, labels=labels)

    def step(self, graph: CSRGraph, state: CCState) -> None:
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        nxt = np.zeros(graph.n_vertices, dtype=bool)
        if exp.n_edges:
            dsts = graph.indices[exp.positions]
            pushed = state.labels[exp.sources]
            old = state.labels[dsts].copy()
            np.minimum.at(state.labels, dsts, pushed)
            changed = dsts[state.labels[dsts] < old]
            if changed.size:
                nxt[changed] = True
        state.active = nxt
        state.iteration += 1

    def values(self, state: CCState) -> np.ndarray:
        return state.labels
