"""Frontier expansion: from an active-vertex mask to its out-edges.

Every push-based superstep starts the same way: take the vertices marked
active this iteration and enumerate their out-edges.  This module does that
expansion fully vectorized (no per-vertex Python loop) — the classic
ranges-to-indices trick: with per-vertex CSR ranges ``[starts, ends)``,

    positions = repeat(starts, counts) + (arange(total) - repeat(cum, counts))

where ``cum`` is the exclusive prefix sum of counts.  All engines use the
same expansion, so every engine processes exactly the same edge set and
produces bit-identical results.

The same mask is walked more than once per superstep — while a program
trace is built, ``step`` materializes the full expansion; while an engine
replays it, the run loop counts the edges for telemetry and the engine's
data-movement accounting counts them again.  :class:`FrontierCache`
memoizes that work per ``(graph, mask)`` pair so each walk happens at most
once per state (the ``state.frontier()`` / ``state.active_edges()`` API on
:class:`~repro.algorithms.base.ProgramState` fronts it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "FrontierExpansion",
    "FrontierCache",
    "expand_frontier",
    "active_edge_count",
]


@dataclass(frozen=True)
class FrontierExpansion:
    """All out-edges of the active vertices, in CSR order.

    ``sources[i]`` is the owning vertex of edge ``positions[i]``;
    ``positions`` indexes into ``graph.indices`` / ``graph.weights``.
    """

    sources: np.ndarray  # int64, one per active edge
    positions: np.ndarray  # int64, one per active edge

    @property
    def n_edges(self) -> int:
        return self.positions.size


def _walk_mask(graph: CSRGraph, active: np.ndarray):
    """The per-mask walk shared by counting and expansion.

    Returns ``(vs, starts, counts)`` over *all* set vertices (zero-degree
    ones included — PageRank needs them for its dangling-mass accounting).
    """
    vs = np.nonzero(active)[0]
    starts = graph.indptr[vs]
    counts = graph.indptr[vs + 1] - starts
    return vs, starts, counts


def _expand(vs: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> FrontierExpansion:
    """Materialize the expansion from a mask walk's intermediates."""
    nz = counts > 0
    vs, starts, counts = vs[nz], starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return FrontierExpansion(sources=empty, positions=empty)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)
    sources = np.repeat(vs, counts)
    return FrontierExpansion(sources=sources, positions=positions)


def expand_frontier(graph: CSRGraph, active: np.ndarray) -> FrontierExpansion:
    """Enumerate the out-edges of every vertex set in the boolean mask ``active``."""
    if active.shape != (graph.n_vertices,):
        raise ValueError(
            f"active mask shape {active.shape} != ({graph.n_vertices},)"
        )
    return _expand(*_walk_mask(graph, active))


def active_edge_count(graph: CSRGraph, active: np.ndarray) -> int:
    """Number of out-edges of the active vertices (no materialization)."""
    vs = np.nonzero(active)[0]
    if vs.size == 0:
        return 0
    return int((graph.indptr[vs + 1] - graph.indptr[vs]).sum())


class FrontierCache:
    """Memoized frontier work for one ``(graph, mask)`` pair at a time.

    Keys on *object identity*: the cache is valid only while the caller
    keeps handing in the very same graph and mask objects, and the mask
    must not be mutated in place (engines and programs replace the active
    mask wholesale each superstep, so both hold in practice).  A different
    graph or mask simply recomputes — correctness never depends on a hit.
    """

    __slots__ = ("_graph", "_mask", "_vs", "_starts", "_counts",
                 "_count", "_expansion")

    def __init__(self) -> None:
        self._graph = None
        self._mask = None
        self._vs = self._starts = self._counts = None
        self._count: int | None = None
        self._expansion: FrontierExpansion | None = None

    def _walk(self, graph: CSRGraph, active: np.ndarray):
        if self._graph is not graph or self._mask is not active:
            if active.shape != (graph.n_vertices,):
                raise ValueError(
                    f"active mask shape {active.shape} != ({graph.n_vertices},)"
                )
            self._vs, self._starts, self._counts = _walk_mask(graph, active)
            self._graph, self._mask = graph, active
            self._count = None
            self._expansion = None
        return self._vs, self._starts, self._counts

    def vertices(self, graph: CSRGraph, active: np.ndarray):
        """``(vs, out_degrees)`` of the set vertices, zero-degree included."""
        vs, _, counts = self._walk(graph, active)
        return vs, counts

    def edge_count(self, graph: CSRGraph, active: np.ndarray) -> int:
        """Memoized :func:`active_edge_count`."""
        if self._expansion is not None and self._graph is graph \
                and self._mask is active:
            return self._expansion.n_edges
        _, _, counts = self._walk(graph, active)
        if self._count is None:
            self._count = int(counts.sum())
        return self._count

    def expansion(self, graph: CSRGraph, active: np.ndarray) -> FrontierExpansion:
        """Memoized :func:`expand_frontier`."""
        vs, starts, counts = self._walk(graph, active)
        if self._expansion is None:
            self._expansion = _expand(vs, starts, counts)
        return self._expansion
