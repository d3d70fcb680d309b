"""The fused BFS / SSSP programs as they were while they still stepped.

A fused traversal under ``src/`` is a descriptor
(``serve.batching.FusedTraversal``) whose trace is the
``ProgramTrace.union`` of memoized single-source traces.  The ``(B, n)``
program it replaced lives on here as the oracle for that composition: one
expansion of the union frontier per superstep, then each source's
relaxation applied to its own row by filtering the shared expansion on that
row's frontier.  The ``step`` bodies are the deleted ones, verbatim; the
state keeps its own ``edges_relaxed`` counter, which
``tests/test_hot_path_set_pins.py`` hashes.

Oracle table — name, kind (``spec`` or ``snapshot``), and the code a
snapshot was moved from::

    BatchedState  snapshot  serve/batching.py (deleted)
    BatchedBFS    snapshot  serve/batching.py (deleted)
    BatchedSSSP   snapshot  serve/batching.py (deleted)
    make_oracle   snapshot  serve/batching.py (deleted)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.algorithms.bfs import UNREACHED
from repro.algorithms.sssp import INF_DIST
from repro.graph.csr import CSRGraph

__all__ = ["BatchedBFS", "BatchedSSSP", "BatchedState", "make_oracle"]


@dataclass
class BatchedState(ProgramState):
    """Union frontier (``active``) plus per-source rows.

    ``fronts`` is the ``(B, n)`` per-source frontier matrix; ``values_2d``
    the ``(B, n)`` value matrix (levels or distances).
    """

    fronts: np.ndarray = None
    values_2d: np.ndarray = None
    #: Edges of the union frontier expanded so far.
    edges_relaxed: int = 0


class _BatchedTraversal(VertexProgram):
    """Shared loop shell of the fused traversals."""

    def __init__(self, sources: Sequence[int]):
        if not sources:
            raise ValueError("batched traversal needs at least one source")
        self.sources = tuple(int(s) for s in sources)
        self.name = f"{self._base_name}x{len(self.sources)}"

    _base_name = "?"

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
    variant = "plain"
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
    variant = "weighted"
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


def make_oracle(algorithm: str, sources: Sequence[int]) -> _BatchedTraversal:
    """The stepping fused program for ``algorithm`` (``BFS`` / ``SSSP``)."""
    return {"BFS": BatchedBFS, "SSSP": BatchedSSSP}[algorithm.upper()](sources)
