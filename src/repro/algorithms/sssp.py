"""Single-source shortest paths.

Frontier-driven Bellman-Ford (the standard GPU SSSP): every active vertex
relaxes all its out-edges with atomic min; vertices whose distance improves
become active for the next superstep.  Converges to exact shortest-path
distances for non-negative integer weights.  SSSP carries a 4-byte weight
per edge, doubling edge bytes — the paper sizes its SSSP datasets
accordingly (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["SSSP", "SSSPState", "INF_DIST"]

#: Distance of unreached vertices (fits uint64 without overflow on relax).
INF_DIST = np.uint64(2**63)


@dataclass
class SSSPState(ProgramState):
    dist: np.ndarray = None  # uint64
    #: Delta-stepping state: vertices improved but deferred to a later
    #: bucket, and the current bucket index.
    pending: np.ndarray = None
    bucket: int = 0


class SSSP(VertexProgram):
    """SSSP from ``source`` (default: the max-degree hub).

    ``delta=None`` is plain frontier Bellman-Ford (every improved vertex
    re-relaxes next superstep).  ``delta > 0`` enables delta-stepping: a
    vertex whose tentative distance lands beyond the current bucket
    ``[b·delta, (b+1)·delta)`` is *deferred* until the frontier drains,
    which prunes the re-relaxation cascades long weighted paths cause —
    the standard GPU SSSP optimization, still exact for non-negative
    weights.
    """

    name = "SSSP"
    variant = "weighted"
    atomics = True

    def __init__(self, source: int | None = None, delta: int | None = None):
        if delta is not None and delta <= 0:
            raise ValueError("delta must be positive")
        self.source = source
        self.delta = delta

    def _resolve_source(self, graph: CSRGraph) -> int:
        if self.source is not None:
            if not 0 <= self.source < graph.n_vertices:
                raise ValueError(f"source {self.source} out of range")
            return self.source
        from repro.graph.properties import best_source

        return best_source(graph)

    def init_state(self, graph: CSRGraph) -> SSSPState:
        self.validate_graph(graph)
        src = self._resolve_source(graph)
        dist = np.full(graph.n_vertices, INF_DIST, dtype=np.uint64)
        dist[src] = 0
        active = np.zeros(graph.n_vertices, dtype=bool)
        active[src] = True
        pending = np.zeros(graph.n_vertices, dtype=bool)
        return SSSPState(active=active, dist=dist, pending=pending, bucket=0)

    def step(self, graph: CSRGraph, state: SSSPState) -> None:
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        nxt = np.zeros(graph.n_vertices, dtype=bool)
        if exp.n_edges:
            dsts = graph.indices[exp.positions]
            cand = state.dist[exp.sources] + graph.weights[exp.positions].astype(np.uint64)
            old = state.dist[dsts].copy()
            # Atomic-min push, vectorized: scatter-min then diff against old.
            np.minimum.at(state.dist, dsts, cand)
            improved = dsts[state.dist[dsts] < old]
            if improved.size:
                nxt[improved] = True
        if self.delta is None:
            state.active = nxt
            state.iteration += 1
            return
        # Delta-stepping: improved vertices join the pending pool; only the
        # current bucket's slice runs next superstep.
        state.pending |= nxt
        threshold = np.uint64((state.bucket + 1) * self.delta)
        near = state.pending & (state.dist < threshold)
        if not near.any() and state.pending.any():
            # Frontier drained: advance to the first non-empty bucket.
            min_pending = int(state.dist[state.pending].min())
            state.bucket = min_pending // self.delta
            threshold = np.uint64((state.bucket + 1) * self.delta)
            near = state.pending & (state.dist < threshold)
        state.active = near
        state.pending &= ~near
        state.iteration += 1

    def values(self, state: SSSPState) -> np.ndarray:
        return state.dist
