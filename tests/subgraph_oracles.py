"""Materialized subgraphs — the SubCSR the On-demand Engine actually ships.

The cost model charges ``active_edges × bytes_per_edge + vertices × 8`` for
each gathered subgraph; this oracle *builds* that structure (Subway's
SubCSR: compacted offsets over the requested vertices plus their gathered
edge slices), so ``tests/test_subgraph.py`` can cross-validate the
accounting against real bytes.

Everything is vectorized; extraction is O(active edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.algorithms.frontier import expand_frontier
from repro.graph.csr import CSRGraph

__all__ = ["SubCSR", "extract_subgraph"]


@dataclass(frozen=True)
class SubCSR:
    """A gathered subgraph: the active vertices' edges, compacted.

    ``vertices[i]`` is the original id of compacted vertex ``i``; its edges
    are ``indices[indptr[i]:indptr[i+1]]`` (original destination ids), with
    ``weights`` parallel when present.  ``positions`` maps every gathered
    edge back to its index in the source graph's edge array.
    """

    vertices: np.ndarray  # int64 (n_sub,)
    indptr: np.ndarray  # int64 (n_sub + 1,)
    indices: np.ndarray  # int32 (m_sub,)
    positions: np.ndarray  # int64 (m_sub,)
    weights: Optional[np.ndarray] = None  # uint32 (m_sub,)

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @property
    def n_edges(self) -> int:
        return self.indices.size

    @property
    def edge_nbytes(self) -> int:
        """Bytes of the edge payload (what crosses PCIe as data)."""
        per_edge = self.indices.itemsize + (
            self.weights.itemsize if self.weights is not None else 0
        )
        return self.n_edges * per_edge

    @property
    def offset_nbytes(self) -> int:
        """Bytes of the per-vertex request/offset structures."""
        return self.n_vertices * 8

    @property
    def nbytes(self) -> int:
        """Total staged bytes — must equal the cost model's charge."""
        return self.edge_nbytes + self.offset_nbytes

    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def validate_against(self, graph: CSRGraph) -> None:
        """Assert this SubCSR is exactly the graph's slice it claims to be."""
        if not np.array_equal(graph.indices[self.positions], self.indices):
            raise AssertionError("gathered destinations do not match the source graph")
        if self.weights is not None:
            if graph.weights is None or not np.array_equal(
                graph.weights[self.positions], self.weights
            ):
                raise AssertionError("gathered weights do not match the source graph")
        deg = graph.out_degree()[self.vertices]
        if not np.array_equal(np.diff(self.indptr), deg):
            raise AssertionError("compacted degrees do not match the source graph")


def extract_subgraph(graph: CSRGraph, active: np.ndarray) -> SubCSR:
    """Gather the active vertices' edges into a compacted SubCSR.

    This is the CPU-side step (b) of §2.2 done for real: walk the request
    list, copy each vertex's edge slice into a dense staging buffer, and
    emit the compacted offsets the GPU kernel will index with.
    """
    if active.shape != (graph.n_vertices,):
        raise ValueError("active mask shape mismatch")
    vertices = np.nonzero(active)[0].astype(np.int64)
    exp = expand_frontier(graph, active)
    counts = (graph.indptr[vertices + 1] - graph.indptr[vertices]).astype(np.int64)
    indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SubCSR(
        vertices=vertices,
        indptr=indptr,
        indices=graph.indices[exp.positions].copy(),
        positions=exp.positions,
        weights=(
            graph.weights[exp.positions].copy() if graph.weights is not None else None
        ),
    )
