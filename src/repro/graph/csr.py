"""Compressed-sparse-row graph storage.

This is the in-(host)-memory representation every engine works from: the
paper keeps the graph "in the CSR format" on the CPU side (§3.1) and ships
slices of the edge array (``indices`` / ``weights``) across PCIe.  Edges of a
vertex are stored contiguously, so a *vertex-aligned byte range* of the edge
array is the unit every policy in this repo reasons about.

Conventions
-----------
* ``indptr`` is ``int64`` of length ``n + 1``; ``indices`` is ``int32`` —
  4 bytes per edge, matching the paper's sizing (§4.1: edge data doubles for
  SSSP because of the 4-byte weight field).
* Directed graphs store out-edges.  Undirected graphs are stored symmetrized
  (both directions present), as the CUDA frameworks under study do.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph", "ChunkMap", "ChunkRuns", "fragment_geometry",
           "grant_in_order", "EDGE_INDEX_BYTES", "WEIGHT_BYTES",
           "VERTEX_STATE_BYTES", "SHARD_BYTES_PER_GRAPH"]

#: Bytes per edge for the destination-index array (int32).
EDGE_INDEX_BYTES = 4
#: Bytes per edge for the optional weight array (uint32).
WEIGHT_BYTES = 4
#: Bookkeeping bytes per vertex that always live in GPU memory: the value
#: array (8), the CSR offsets (8), active/static bitmaps and frontier
#: scratch (8).  Used when sizing datasets the way §4.1 does.
VERTEX_STATE_BYTES = 24
#: Bytes of shard sets one graph keeps (:meth:`CSRGraph.keep_shards`): what
#: the shards own, the chunk maps and fragment geometry their runs built on
#: them included (their edge slices are views of this graph's).  A set over
#: the bound is never kept, and the least recently used go first.  A bound,
#: not an option: a serving pass's 4-device set owns about 145 KB at 1e-5,
#: while one at 2e-4 owns 3.0–3.7 MB, and keeping those raised
#: ``oom_pressure``'s peak RSS by 13 %.
SHARD_BYTES_PER_GRAPH = 1 << 20


@dataclass(frozen=True)
class ChunkRuns:
    """Ascending, disjoint half-open chunk intervals ``[starts[i], ends[i])``.

    The run-length form of a chunk-id array: one entry per *run* of chunks
    that share every per-chunk quantity the consumer looks at.  Down-scaled
    chunks are smaller than one edge, so a run covers tens to hundreds of
    chunk ids (see :class:`ChunkMap`); consumers weight each run by
    :attr:`lengths` instead of visiting its chunks.
    """

    starts: np.ndarray  # int64
    ends: np.ndarray  # int64

    def __len__(self) -> int:
        """Number of runs (not of chunks — that is :attr:`n_chunks`)."""
        return len(self.starts)

    def __getitem__(self, index) -> "ChunkRuns":
        return ChunkRuns(self.starts[index], self.ends[index])

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def n_chunks(self) -> int:
        return int(self.lengths.sum())

    def ids(self) -> np.ndarray:
        """The chunk ids, expanded run by run in the order given (a
        chunk-length array: use sparingly)."""
        lens = self.lengths
        first = np.cumsum(lens) - lens  # position of each run's first id
        return np.repeat(self.starts - first, lens) + np.arange(int(lens.sum()))

    def cut(self, cuts: np.ndarray) -> Tuple["ChunkRuns", np.ndarray]:
        """Split every run at the sorted chunk ids ``cuts`` that fall inside it.

        Returns ``(pieces, origin)``: ``origin[j]`` is the run piece ``j``
        came from, so per-run values carry over as ``values[origin]``.
        """
        if not len(self) or not len(cuts):
            return self, np.arange(len(self))
        own = np.maximum(np.searchsorted(self.starts, cuts, side="right") - 1, 0)
        inside = cuts[(cuts > self.starts[own]) & (cuts < self.ends[own])]
        starts = np.sort(np.concatenate((self.starts, inside)))
        origin = np.searchsorted(self.starts, starts, side="right") - 1
        # A piece ends where the next begins, or where its own run ends.
        ends = np.minimum(np.append(starts[1:], self.ends[-1]),
                          self.ends[origin])
        return ChunkRuns(starts, ends), origin

    @classmethod
    def from_ids(cls, ids: np.ndarray,
                 *keys: np.ndarray) -> Tuple["ChunkRuns", np.ndarray]:
        """Run-length-compress an id array.

        A run breaks at an id gap and wherever one of the per-id ``keys``
        changes.  Returns ``(runs, first)`` with ``first[i]`` the position
        in ``ids`` where run ``i`` starts, so ``key[first]`` is its value.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty), empty
        brk = np.diff(ids) != 1
        for key in keys:
            brk |= key[1:] != key[:-1]
        first = np.concatenate(([0], np.flatnonzero(brk) + 1))
        last = np.append(first[1:] - 1, ids.size - 1)
        return cls(ids[first], ids[last] + 1), first


def grant_in_order(lengths: np.ndarray, order: np.ndarray,
                   budget: int) -> np.ndarray:
    """Hand ``budget`` chunks to runs visited in ``order``; chunks granted per run.

    Whole runs are granted while the budget lasts; at most one run is granted
    partially (its lowest ids) and every later one gets nothing — the
    run-length form of ``ids_in_that_order[:budget]``.
    """
    visited = lengths[order]
    before = np.cumsum(visited) - visited
    granted = np.empty_like(lengths)
    granted[order] = np.clip(budget - before, 0, visited)
    return granted


def fragment_geometry(seg_bounds: np.ndarray, f: int) -> Tuple[np.ndarray, ...]:
    """Fragments of ``f`` chunks over the chunk axis ``[0, seg_bounds[-1])``.

    Returns ``(boundaries, sizes, edge_seg, edge_off)``: fragment ``i``
    starts at chunk ``boundaries[i]`` and holds ``sizes[i]`` chunks (the
    tail one may be short); fragment edge ``i`` (``0, f, .., n_chunks``)
    lies ``edge_off[i]`` chunks into segment ``edge_seg[i]`` of the
    partition ``seg_bounds``.
    """
    n_chunks = int(seg_bounds[-1])
    edges = np.append(np.arange(0, n_chunks, f, dtype=np.int64), n_chunks)
    seg = np.minimum(np.searchsorted(seg_bounds, edges, side="right") - 1,
                     seg_bounds.size - 2)
    return edges[:-1], np.diff(edges), seg, edges - seg_bounds[seg]


@dataclass(frozen=True)
class ChunkMap:
    """Per-vertex chunk spans of the edge array at one chunk granularity.

    The geometry every chunk-granular component needs — the Static Region's
    residency table, the §3.4 hotness counters, and the Hybrid policy's
    density reconstruction all reason about which chunks a vertex's edge
    range touches.  Computed once per ``(graph, chunk_bytes)`` pair and
    shared (see :meth:`CSRGraph.chunk_map`), instead of each consumer
    rebuilding the same arrays.

    ``c_lo[v] .. c_hi[v]`` (inclusive) is the chunk span of vertex ``v``'s
    edge bytes; degree-0 vertices get the empty span ``(0, -1)`` and are
    excluded from ``has_edges``.

    **Segments.**  Every per-chunk quantity derived from vertex spans (touch
    count, §3.4 ``cumulative`` / ``last``) is constant between consecutive
    span boundaries, so the chunk axis partitions into at most ``2V + 1``
    *segments* ``[seg_bounds[s], seg_bounds[s + 1])``.  Boundaries are chunk
    ids, so segments never outnumber chunks; when chunks are smaller than a
    vertex's edge list (every down-scaled run: 16 KB scales to 1–3 bytes)
    they are 20–300× fewer.  ``s_lo[v] .. s_hi[v]`` (inclusive) is vertex
    ``v``'s span in segment indices, ``(0, -1)`` for degree 0.
    """

    chunk_bytes: int
    n_chunks: int
    has_edges: np.ndarray  # bool, per vertex
    c_lo: np.ndarray  # int64, per vertex
    c_hi: np.ndarray  # int64, per vertex
    seg_bounds: np.ndarray  # int64, n_segments + 1, from 0 to n_chunks
    seg_len: np.ndarray  # int64, per segment
    s_lo: np.ndarray  # int64, per vertex
    s_hi: np.ndarray  # int64, per vertex
    #: :func:`fragment_geometry` per fragment size, built on first use.  It
    #: lives (and dies) with the map, as the map does with its graph.
    _fragments: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def n_segments(self) -> int:
        return len(self.seg_len)

    @property
    def nbytes(self) -> int:
        """Bytes of the map's arrays and of its fragment geometry."""
        arrays = (self.has_edges, self.c_lo, self.c_hi, self.seg_bounds,
                  self.seg_len, self.s_lo, self.s_hi)
        return (sum(a.nbytes for a in arrays)
                + sum(a.nbytes for geom in self._fragments.values()
                      for a in geom))

    def fragment_geometry(self, f: int) -> Tuple[np.ndarray, ...]:
        """:func:`fragment_geometry` of this map's segments, cached per ``f``:
        every region and hotness table over the map shares one copy."""
        geom = self._fragments.get(f)
        if geom is None:
            geom = self._fragments[f] = fragment_geometry(self.seg_bounds, f)
        return geom

    def segments(self, index: np.ndarray) -> ChunkRuns:
        """The segments at ``index`` (ascending) as chunk runs, unmerged."""
        return ChunkRuns(self.seg_bounds[index], self.seg_bounds[index + 1])

    def segment_runs(self, mask: np.ndarray) -> ChunkRuns:
        """Merged chunk runs covered by the segments where ``mask`` is set."""
        padded = np.zeros(mask.size + 2, dtype=np.int8)
        padded[1:-1] = mask
        edge = padded[1:] - padded[:-1]
        return ChunkRuns(self.seg_bounds[np.flatnonzero(edge == 1)],
                         self.seg_bounds[np.flatnonzero(edge == -1)])


@dataclass
class CSRGraph:
    """A graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n_vertices + 1``; edges of vertex ``v``
        occupy ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of destination vertices, length ``n_edges``.
    weights:
        Optional ``uint32`` per-edge weights (SSSP).  ``None`` for
        unweighted algorithms.
    directed:
        Whether the stored edges are one-directional.  Undirected inputs are
        expected to already contain both arcs.
    name:
        Optional label used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    directed: bool = True
    name: str = "graph"
    _out_degree: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _chunk_maps: dict = field(default_factory=dict, repr=False, compare=False)
    #: Program traces memoized on this graph (``algorithms.base.program_trace``).
    _traces: OrderedDict = field(default_factory=OrderedDict, init=False,
                                 repr=False, compare=False)
    #: Shard sets memoized on this graph, ``n_shards → (shards, nbytes)``
    #: (:meth:`shards` / :meth:`keep_shards`).
    _shard_sets: OrderedDict = field(default_factory=OrderedDict, init=False,
                                     repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.uint32)
            if self.weights.shape != self.indices.shape:
                raise ValueError(
                    f"weights shape {self.weights.shape} != indices shape {self.indices.shape}"
                )
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} does not match n_edges={self.indices.size}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_vertices
        ):
            raise ValueError("edge destination out of range")

    def __getstate__(self):
        # Traces and shard sets are derived and can be large; a pickled
        # graph (a Static Region in a checkpoint blob) carries neither and
        # rebuilds them on demand.
        state = dict(self.__dict__)
        del state["_traces"], state["_shard_sets"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, _traces=OrderedDict(),
                             _shard_sets=OrderedDict())

    # ------------------------------------------------------------------ size
    @property
    def n_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        return self.indices.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def bytes_per_edge(self) -> int:
        """Bytes one edge occupies on the wire (index, plus weight if any)."""
        return EDGE_INDEX_BYTES + (WEIGHT_BYTES if self.is_weighted else 0)

    @property
    def edge_array_bytes(self) -> int:
        """Total bytes of the edge data (the out-of-memory part)."""
        return self.n_edges * self.bytes_per_edge

    @property
    def vertex_state_bytes(self) -> int:
        """Bytes of always-resident per-vertex state (values, offsets, maps)."""
        return self.n_vertices * VERTEX_STATE_BYTES

    @property
    def dataset_bytes(self) -> int:
        """Dataset size the way §4.1 sizes it: vertices + edges + buffers."""
        return self.vertex_state_bytes + self.edge_array_bytes

    # ------------------------------------------------------------ navigation
    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._out_degree is None:
            self._out_degree = np.diff(self.indptr)
        return self._out_degree

    def chunk_map(self, chunk_bytes: int) -> ChunkMap:
        """The per-vertex chunk-span geometry at ``chunk_bytes`` granularity.

        Cached per chunk size: a run builds several chunk-indexed components
        (Static Region, hotness table, Hybrid's density policy) over the
        same geometry, and the serving layer reuses one graph across many
        requests — each pays the vertex-count-sized computation once.
        """
        chunk_bytes = int(chunk_bytes)
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        cached = self._chunk_maps.get(chunk_bytes)
        if cached is not None:
            return cached
        edge_bytes = self.edge_array_bytes
        n_chunks = -(-edge_bytes // chunk_bytes) if edge_bytes else 0
        bpe = self.bytes_per_edge
        lo = self.indptr[:-1] * bpe
        hi = self.indptr[1:] * bpe
        has_edges = hi > lo
        c_lo = np.where(has_edges, lo // chunk_bytes, 0)
        c_hi = np.where(has_edges, (hi - 1) // chunk_bytes, -1)
        # Segment boundaries: every chunk id where some vertex's span starts
        # or stops.  Each chunk lies in some vertex's span, so 0 is always
        # among them once there are edges.
        seg_bounds = np.sort(np.concatenate((c_lo[has_edges], c_hi[has_edges] + 1)))
        keep = np.ones(seg_bounds.size, dtype=bool)
        np.not_equal(seg_bounds[1:], seg_bounds[:-1], out=keep[1:])
        seg_bounds = seg_bounds[keep]
        if n_chunks == 0:
            seg_bounds = np.zeros(1, dtype=np.int64)
        s_lo = np.where(has_edges, np.searchsorted(seg_bounds, c_lo), 0)
        s_hi = np.where(has_edges, np.searchsorted(seg_bounds, c_hi + 1) - 1, -1)
        cmap = ChunkMap(chunk_bytes=chunk_bytes, n_chunks=n_chunks,
                        has_edges=has_edges, c_lo=c_lo, c_hi=c_hi,
                        seg_bounds=seg_bounds, seg_len=np.diff(seg_bounds),
                        s_lo=s_lo, s_hi=s_hi)
        self._chunk_maps[chunk_bytes] = cmap
        return cmap

    @property
    def derived_nbytes(self) -> int:
        """Bytes of the geometry built on this graph: out-degrees and chunk
        maps (traces and shard sets are budgeted on their own)."""
        degree = 0 if self._out_degree is None else self._out_degree.nbytes
        return degree + sum(cmap.nbytes for cmap in self._chunk_maps.values())

    def shards(self, n_shards: int) -> Optional[tuple]:
        """The kept shard set of ``n_shards`` (a tuple of
        :class:`~repro.graph.shard.GraphShard`), or ``None``: the caller
        builds one with :func:`~repro.graph.shard.shard_graph` and offers it
        back through :meth:`keep_shards` once its run is done with it."""
        kept = self._shard_sets.get(n_shards)
        if kept is None:
            return None
        self._shard_sets.move_to_end(n_shards)
        return kept[0]

    def keep_shards(self, shards: Sequence) -> None:
        """Keep ``shards`` for the next :meth:`shards` lookup of their count.

        Measured when offered, so the chunk maps and fragment geometry its
        runs built on the shard graphs count: a set over
        :data:`SHARD_BYTES_PER_GRAPH` is dropped, and the least recently
        used sets go until the rest fit.
        """
        n = len(shards)
        self._shard_sets.pop(n, None)
        nbytes = sum(s.nbytes for s in shards)
        if nbytes > SHARD_BYTES_PER_GRAPH:
            return
        self._shard_sets[n] = (tuple(shards), nbytes)
        held = sum(size for _, size in self._shard_sets.values())
        while held > SHARD_BYTES_PER_GRAPH:
            held -= self._shard_sets.popitem(last=False)[1][1]

    def neighbors(self, v: int) -> np.ndarray:
        """Destination vertices of ``v``'s out-edges (a view, not a copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edge_range(self, v_lo: int, v_hi: int) -> tuple[int, int]:
        """Half-open edge-array index range covering vertices ``[v_lo, v_hi)``."""
        return int(self.indptr[v_lo]), int(self.indptr[v_hi])

    # ---------------------------------------------------------- construction
    @classmethod
    def from_edges(
        cls,
        src: Iterable[int],
        dst: Iterable[int],
        n_vertices: int,
        weights: Optional[Iterable[int]] = None,
        directed: bool = True,
        name: str = "graph",
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel (src, dst[, weight]) arrays.

        Undirected graphs (``directed=False``) get both arcs materialized.
        Self-loops are kept (PageRank treats them as ordinary edges).
        ``dedup=True`` removes duplicate (src, dst) pairs, keeping the first
        weight encountered.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        w = None if weights is None else np.asarray(weights, dtype=np.uint32)
        if w is not None and w.shape != src.shape:
            raise ValueError("weights must match edge count")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("negative vertex id")
        if src.size and max(int(src.max()), int(dst.max())) >= n_vertices:
            raise ValueError("vertex id out of range")

        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])

        if dedup and src.size:
            key = src * np.int64(n_vertices) + dst
            _, keep = np.unique(key, return_index=True)
            keep.sort()
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]

        order = np.argsort(src, kind="stable")
        src_sorted = src[order]
        indices = dst[order].astype(np.int32)
        w_sorted = None if w is None else w[order]
        counts = np.bincount(src_sorted, minlength=n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=indices,
            weights=w_sorted,
            directed=directed,
            name=name,
        )

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a copy of this graph carrying the given per-edge weights."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=np.asarray(weights, dtype=np.uint32),
            directed=self.directed,
            name=self.name,
        )

    def with_random_weights(
        self, low: int = 1, high: int = 64, seed: int = 7
    ) -> "CSRGraph":
        """Attach uniform random integer weights in ``[low, high)`` (SSSP)."""
        rng = np.random.default_rng(seed)
        return self.with_weights(rng.integers(low, high, size=self.n_edges, dtype=np.uint32))

    def unweighted(self) -> "CSRGraph":
        """Drop weights (BFS/CC/PR sizing)."""
        if self.weights is None:
            return self
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=None,
            directed=self.directed,
            name=self.name,
        )

    def symmetrized(self) -> "CSRGraph":
        """Both arc directions materialized (weakly-connected-components view).

        Returns ``self`` when already undirected.  CC on a directed graph
        computes min-*reaching*-label; run it on the symmetrized view to get
        weakly connected components instead.
        """
        if not self.directed:
            return self
        src = self.edge_sources()
        return CSRGraph.from_edges(
            src,
            self.indices.astype(np.int64),
            self.n_vertices,
            weights=self.weights,
            directed=False,
            name=self.name + "+sym",
        )

    def reverse(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges)."""
        n = self.n_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        g = CSRGraph.from_edges(
            self.indices.astype(np.int64),
            src,
            n,
            weights=self.weights,
            directed=True,
            name=self.name + "^T",
        )
        g.directed = self.directed
        return g

    # -------------------------------------------------------------- exports
    def edge_sources(self) -> np.ndarray:
        """Expanded source array (``int64``), one entry per edge."""
        return np.repeat(np.arange(self.n_vertices, dtype=np.int64), np.diff(self.indptr))

    def to_networkx(self):
        """Export to a networkx graph for reference validation."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.n_vertices))
        src = self.edge_sources()
        if self.weights is not None:
            g.add_weighted_edges_from(
                zip(src.tolist(), self.indices.tolist(), self.weights.tolist())
            )
        else:
            g.add_edges_from(zip(src.tolist(), self.indices.tolist()))
        return g

    def to_scipy(self):
        """Export to a scipy CSR matrix (1s, or weights when present)."""
        from scipy.sparse import csr_matrix

        data = (
            np.ones(self.n_edges, dtype=np.float64)
            if self.weights is None
            else self.weights.astype(np.float64)
        )
        # scipy canonicalizes (sorts / merges duplicates) *in place*; hand
        # it copies so the graph's own arrays stay pristine.
        return csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.n_vertices, self.n_vertices),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph({self.name!r}, {kind}, {w}, "
            f"n={self.n_vertices:,}, m={self.n_edges:,})"
        )
