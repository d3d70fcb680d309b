"""Multi-source traversal fusion: one frontier program, B sources.

Compatible queued traversals (same graph variant, same algorithm) fuse
into a single batched program: per-source value rows plus per-source
frontiers, with ``state.active`` being the **union** frontier.  The engine
charges data movement for the union's edges exactly once per superstep —
that shared edge read is the whole fusion win: B queued BFS runs each
stream the frontier's chunks; the fused run streams them once.

The numeric semantics are the per-source programs', unchanged: ``step``
expands the union frontier once (what the fused kernel reads) and applies
each source's relaxation to its own row by filtering the shared expansion
on that row's frontier.  With ``B == 1`` every array equals the
single-source program's bit for bit — the parity tests pin that.

Latency cost: every request in a batch is charged the full batch service
time (one fused run has one completion time).  The batch-size knob on the
simulator trades that added latency against the shared-read throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.algorithms.bfs import UNREACHED
from repro.algorithms.sssp import INF_DIST
from repro.graph.csr import CSRGraph

__all__ = ["BatchedBFS", "BatchedSSSP", "BatchedState", "make_batched"]


@dataclass
class BatchedState(ProgramState):
    """Union frontier (``active``) plus per-source rows.

    ``fronts`` is the ``(B, n)`` per-source frontier matrix; ``values_2d``
    the ``(B, n)`` value matrix (levels or distances).
    """

    fronts: np.ndarray = None
    values_2d: np.ndarray = None


class _BatchedTraversal(VertexProgram):
    """Shared loop shell of the fused traversals."""

    def __init__(self, sources: Sequence[int]):
        if not sources:
            raise ValueError("batched traversal needs at least one source")
        self.sources = tuple(int(s) for s in sources)
        self.name = f"{self._base_name}x{len(self.sources)}"

    _base_name = "?"

    @property
    def batch_size(self) -> int:
        return len(self.sources)

    def _check_sources(self, graph: CSRGraph) -> None:
        for s in self.sources:
            if not 0 <= s < graph.n_vertices:
                raise ValueError(f"source {s} out of range")

    def _init_rows(self, graph: CSRGraph, fill, dtype) -> BatchedState:
        self._check_sources(graph)
        b, n = len(self.sources), graph.n_vertices
        values = np.full((b, n), fill, dtype=dtype)
        fronts = np.zeros((b, n), dtype=bool)
        for row, src in enumerate(self.sources):
            values[row, src] = 0
            fronts[row, src] = True
        return BatchedState(active=fronts.any(axis=0), fronts=fronts,
                            values_2d=values)

    def values(self, state: BatchedState) -> np.ndarray:
        """The ``(B, n)`` value matrix, row ``i`` for ``sources[i]``."""
        return state.values_2d


class BatchedBFS(_BatchedTraversal):
    """B level-synchronous BFS runs fused over one shared edge stream."""

    _base_name = "BFS"
    needs_weights = False
    atomics = False

    def init_state(self, graph: CSRGraph) -> BatchedState:
        return self._init_rows(graph, UNREACHED, np.int32)

    def step(self, graph: CSRGraph, state: BatchedState) -> None:
        # One expansion of the union frontier — the edge set the fused
        # kernel actually reads — then per-row filtering against it.
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        new_fronts = np.zeros_like(state.fronts)
        if exp.n_edges:
            dsts_all = graph.indices[exp.positions]
            for row in range(state.fronts.shape[0]):
                sel = state.fronts[row][exp.sources]
                if not sel.any():
                    continue
                dsts = dsts_all[sel]
                levels = state.values_2d[row]
                fresh = dsts[levels[dsts] == UNREACHED]
                if fresh.size:
                    levels[fresh] = state.iteration + 1
                    new_fronts[row][fresh] = True
        state.fronts = new_fronts
        state.active = new_fronts.any(axis=0)
        state.iteration += 1


class BatchedSSSP(_BatchedTraversal):
    """B frontier-Bellman-Ford runs fused over one shared edge stream."""

    _base_name = "SSSP"
    needs_weights = True
    atomics = True

    def init_state(self, graph: CSRGraph) -> BatchedState:
        self.validate_graph(graph)
        return self._init_rows(graph, INF_DIST, np.uint64)

    def step(self, graph: CSRGraph, state: BatchedState) -> None:
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        new_fronts = np.zeros_like(state.fronts)
        if exp.n_edges:
            dsts_all = graph.indices[exp.positions]
            w_all = graph.weights[exp.positions].astype(np.uint64)
            for row in range(state.fronts.shape[0]):
                sel = state.fronts[row][exp.sources]
                if not sel.any():
                    continue
                dsts = dsts_all[sel]
                dist = state.values_2d[row]
                cand = dist[exp.sources[sel]] + w_all[sel]
                old = dist[dsts].copy()
                np.minimum.at(dist, dsts, cand)
                improved = dsts[dist[dsts] < old]
                if improved.size:
                    new_fronts[row][improved] = True
        state.fronts = new_fronts
        state.active = new_fronts.any(axis=0)
        state.iteration += 1


def make_batched(algorithm: str, sources: Sequence[int]) -> _BatchedTraversal:
    """Construct the fused program for a batchable ``algorithm``."""
    algorithm = algorithm.upper()
    if algorithm == "BFS":
        return BatchedBFS(sources)
    if algorithm == "SSSP":
        return BatchedSSSP(sources)
    raise ValueError(f"algorithm {algorithm!r} is not batchable (BFS/SSSP)")
