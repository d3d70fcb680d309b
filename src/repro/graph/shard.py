"""Graph sharding for multi-device execution.

A :class:`GraphShard` is one device's view of the graph: a contiguous slice
of the edge array (produced by
:func:`~repro.graph.partition.partition_by_vertex_ranges`, so shards carry
nearly equal edge counts) re-expressed as a CSR over the **full vertex
set**.  Keeping every vertex in every shard mirrors the paper-scale reality
that vertex state is small and replicated per device while the edge array —
the thing that does not fit — is split:

* destinations stay valid global vertex ids (``CSRGraph`` validation holds);
* a vertex's *local degree* in a shard is exactly its number of edges inside
  the shard's ``[e_lo, e_hi)`` slice — zero for vertices owned elsewhere —
  so any frontier mask over global ids filters itself for free;
* a mega-vertex whose edge list spans a shard boundary (the power-law case
  :func:`partition_by_vertex_ranges` splits mid-vertex) simply contributes
  part of its degree to each side; summed over shards, every edge appears
  exactly once.

``boundary_vertices`` is the shard's halo: the vertices whose global edge
list crosses this shard's boundary and is therefore co-processed by a
neighbouring device in the same superstep.

A shard set is a function of ``(graph, n_shards)`` alone, so it is built
once and reused: :func:`shard_graph` builds it, and the graph keeps it
(:meth:`CSRGraph.shards <repro.graph.csr.CSRGraph.shards>` /
:meth:`~repro.graph.csr.CSRGraph.keep_shards`) together with the chunk maps
and fragment geometry its runs built on the shard graphs, under the byte
bound :data:`~repro.graph.csr.SHARD_BYTES_PER_GRAPH`.  A shard's edge slice
is a view of the parent's arrays; :attr:`GraphShard.nbytes` counts only what
the shard owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import EdgePartition, partition_by_vertex_ranges

__all__ = ["GraphShard", "shard_graph", "per_shard_budgets", "halo_map"]


@dataclass(frozen=True)
class GraphShard:
    """One device's slice of the edge array, as a full-vertex-set CSR."""

    shard_id: int
    n_shards: int
    #: The local CSR view: all global vertices, only this shard's edges.
    graph: CSRGraph
    #: Global edge-index range ``[e_lo, e_hi)`` this shard holds.
    e_lo: int
    e_hi: int
    #: Vertex range ``[v_lo, v_hi)`` with at least one local edge.
    v_lo: int
    v_hi: int
    #: Vertices whose global edge list crosses this shard's boundary
    #: (split mega-vertices shared with a neighbouring shard).
    boundary_vertices: np.ndarray = field(compare=False)

    @property
    def n_local_edges(self) -> int:
        return self.e_hi - self.e_lo

    @property
    def local_edge_bytes(self) -> int:
        return self.n_local_edges * self.graph.bytes_per_edge

    @property
    def nbytes(self) -> int:
        """Bytes the shard owns: its offsets, its halo and the geometry built
        on its graph (the edge slice is a view of the parent's arrays)."""
        return (self.graph.indptr.nbytes + self.boundary_vertices.nbytes
                + self.graph.derived_nbytes)

    def local_degree(self) -> np.ndarray:
        """Per-vertex edge count inside this shard (0 for foreign vertices)."""
        return self.graph.out_degree()


def _shard_from_partition(graph: CSRGraph, part: EdgePartition,
                          n_shards: int) -> GraphShard:
    e_lo, e_hi = part.e_lo, part.e_hi
    indptr = np.clip(graph.indptr, e_lo, e_hi) - e_lo
    indices = graph.indices[e_lo:e_hi]
    weights = None if graph.weights is None else graph.weights[e_lo:e_hi]
    local = CSRGraph(
        indptr=indptr,
        indices=indices,
        weights=weights,
        directed=graph.directed,
        name=f"{graph.name}#s{part.pid}of{n_shards}",
    )
    # Boundary (halo) vertices: their global edge extent sticks out of
    # [e_lo, e_hi) on either side while still having local edges.
    deg = local.out_degree()
    starts = graph.indptr[:-1]
    ends = graph.indptr[1:]
    crosses = (deg > 0) & ((starts < e_lo) | (ends > e_hi))
    return GraphShard(
        shard_id=part.pid,
        n_shards=n_shards,
        graph=local,
        e_lo=e_lo,
        e_hi=e_hi,
        v_lo=part.v_lo,
        v_hi=part.v_hi,
        boundary_vertices=np.nonzero(crosses)[0].astype(np.int64),
    )


def shard_graph(graph: CSRGraph, n_shards: int) -> List[GraphShard]:
    """Split ``graph`` into ``n_shards`` equal-edge-count device shards.

    Built on :func:`partition_by_vertex_ranges`: shard ``k`` holds the
    global edge slice ``[bounds[k], bounds[k+1])``, so the shards tile the
    edge array exactly — no edge is dropped or duplicated, including edges
    of mega-vertices split across shards (property-tested in
    ``tests/test_shard.py``).
    """
    parts = partition_by_vertex_ranges(graph, n_shards)
    return [_shard_from_partition(graph, p, n_shards) for p in parts]


def per_shard_budgets(shards: List[GraphShard], total_bytes: int) -> List[int]:
    """Split a fabric-wide Static Region budget proportionally to shard size.

    Each shard gets a budget proportional to its local edge bytes (at least
    1 byte so a degenerate empty shard still constructs a region), with the
    remainder of the integer division going to the earliest shards —
    deterministic and summing to exactly ``total_bytes`` when
    ``total_bytes >= len(shards)``.
    """
    if total_bytes <= 0:
        raise ValueError("total_bytes must be positive")
    sizes = np.array([max(s.local_edge_bytes, 1) for s in shards],
                     dtype=np.int64)
    raw = sizes * total_bytes / sizes.sum()
    budgets = np.maximum(raw.astype(np.int64), 1)
    # Hand the rounding remainder to the largest shards, stable order.
    shortfall = int(total_bytes - budgets.sum())
    if shortfall > 0:
        order = np.argsort(-sizes, kind="stable")[:shortfall]
        budgets[order] += 1
    return [int(b) for b in budgets]


def halo_map(shards: List[GraphShard]) -> Dict[int, np.ndarray]:
    """Shard id → its boundary (halo) vertex ids."""
    return {s.shard_id: s.boundary_vertices for s in shards}
