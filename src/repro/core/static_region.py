"""The Static Region's chunk table (§3.1, §3.4).

The edge array is divided into fixed 16 KB chunks ("amenable to the PCI-e
burst transfer mechanism", §3.4); the Static Region holds some subset of
them on the device across iterations.  This class tracks residency, derives
the vertex-granularity **StaticBitmap** (a vertex is static iff *all*
chunks its edge range touches are resident — a partially-covered vertex is
fetched through the On-demand Engine in full, matching the paper's
vertex-level maps), and applies swap plans from the replacement server.

Fill policies (§5): the initial content can be the ``front`` portion, the
``rear`` portion, or ``random`` chunks — the paper measures < 5 % difference
between them, which ``benchmarks/bench_ablations.py`` reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import ChunkRuns, CSRGraph

__all__ = ["StaticRegion", "DEFAULT_CHUNK_BYTES", "FILLS", "range_mark"]

#: §3.4: 16 KB chunks.
DEFAULT_CHUNK_BYTES = 16 * 1024


def range_mark(lo: np.ndarray, hi_next: np.ndarray, n_bins: int) -> np.ndarray:
    """Difference array for the range-mark trick: +1 at ``lo``, -1 at
    ``hi_next``; ``cumsum(diff[:-1])`` then counts covering ranges per bin.

    Two execution strategies with identical results, picked by regime:
    with at least one index per bin, ``np.bincount`` wins — it streams the
    indices without ``np.add.at``'s per-element dispatch; for sparse marks
    over many bins, the two full-width arrays bincount allocates and
    subtracts cost more than scattering into one preallocated array.  The
    crossover sits near indices ≈ bins on this container's NumPy (the
    scaled Ascetic engine exercises the sparse side).
    """
    if lo.size >= n_bins:
        diff = np.bincount(lo, minlength=n_bins + 1)
        np.subtract(diff, np.bincount(hi_next, minlength=n_bins + 1), out=diff)
        return diff
    diff = np.zeros(n_bins + 1, dtype=np.int64)
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi_next, -1)
    return diff


#: The §5 fill policies.
FILLS = ("front", "rear", "random", "lazy")

#: No chunk ids (one side of a one-sided residency change).
_NONE = np.empty(0, dtype=np.int64)


class StaticRegion:
    """Chunk-granular residency of the edge array on the device."""

    def __init__(
        self,
        graph: CSRGraph,
        capacity_bytes: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        fill: str = "front",
        seed: int = 0,
        fragment_chunks: int = 64,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if fragment_chunks <= 0:
            raise ValueError("fragment size must be positive")
        self.graph = graph
        self.chunk_bytes = int(chunk_bytes)
        self.fragment_chunks = int(fragment_chunks)
        # The per-vertex chunk-span geometry is shared per (graph, chunk
        # size) pair — the hotness table and the Hybrid policy reason about
        # the same map, and the serving layer reuses one graph across many
        # requests.
        cmap = graph.chunk_map(self.chunk_bytes)
        self.chunk_map = cmap
        self.n_chunks = cmap.n_chunks
        self.capacity_chunks = min(int(capacity_bytes) // self.chunk_bytes, self.n_chunks)
        self.resident = np.zeros(self.n_chunks, dtype=bool)
        self._vertex_bitmap: np.ndarray | None = None
        # Merged maximal runs of resident chunks — the representation the
        # per-iteration queries are answered from (see resident_runs).
        self._resident_runs: tuple | None = None
        # (fragment_chunks, per-fragment resident counts, candidates) for
        # plan_swaps; kept current by every mutation (see _moved).
        self._frag_res: tuple | None = None
        self._fill(fill, seed)
        self._has_edges = cmap.has_edges
        self._c_lo = cmap.c_lo
        self._c_hi = cmap.c_hi

    def _fill(self, fill: str, seed: int) -> None:
        if fill not in FILLS:
            raise ValueError(f"unknown fill policy {fill!r} ({'/'.join(FILLS)})")
        k = self.capacity_chunks
        if fill == "lazy":
            # Start empty; chunks are promoted from on-demand traffic as it
            # arrives (no dedicated prefill transfer at all).
            return
        if k == 0:
            return
        if fill == "front":
            self.resident[:k] = True
        elif fill == "rear":
            self.resident[self.n_chunks - k :] = True
        else:  # random
            # Random at *fragment* granularity (Fig. 6): scattering single
            # chunks would leave almost no vertex fully covered, while
            # random contiguous runs spread coverage evenly over the edge
            # array — the property §5's conjecture relies on.
            # Draw fragments until the capacity is covered, then trim the
            # overshoot: flooring the fragment count would strand up to
            # ``fragment_chunks - 1`` chunks of capacity (and the tail
            # fragment may be short), making the §5 fill-policy ablation
            # compare regions of different effective size.
            rng = np.random.default_rng(seed)
            f = self.fragment_chunks
            n_frags = -(-self.n_chunks // f)
            got = 0
            for fr in rng.permutation(n_frags):
                lo, hi = fr * f, min((fr + 1) * f, self.n_chunks)
                self.resident[lo:hi] = True
                got += hi - lo
                if got >= k:
                    break
            over = got - k
            if over > 0:
                ids = np.nonzero(self.resident)[0]
                self.resident[ids[-over:]] = False

    # ------------------------------------------------------------ accessors
    @property
    def resident_chunks(self) -> int:
        return int(np.count_nonzero(self.resident))

    @property
    def resident_bytes(self) -> int:
        return self.resident_chunks * self.chunk_bytes

    def vertex_static_bitmap(self) -> np.ndarray:
        """StaticBitmap: vertices whose whole edge range is resident.

        Degree-0 vertices are static by convention (they need no edge data).
        Cached; dropped by every residency mutation.

        A vertex is covered exactly when its chunk span lies inside one
        maximal run of resident chunks, so the test is a searchsorted over
        the (cached) run boundaries — no chunk-length prefix sum, whose
        sequential cumsum dominated this method's cost at realistic chunk
        counts.
        """
        if self._vertex_bitmap is None:
            if self.n_chunks == 0:
                self._vertex_bitmap = np.ones(self.graph.n_vertices, dtype=bool)
            else:
                starts, ends, _ = self.resident_runs()
                if starts.size == 0:
                    self._vertex_bitmap = ~self._has_edges
                else:
                    idx = np.searchsorted(starts, self._c_lo, side="right") - 1
                    idxc = np.maximum(idx, 0)
                    covered = (idx >= 0) & (self._c_hi < ends[idxc])
                    self._vertex_bitmap = covered | ~self._has_edges
        return self._vertex_bitmap

    def _moved(self, evicted: np.ndarray, loaded: np.ndarray) -> None:
        """Residency just changed at these chunk ids (int64, each id once).

        The vertex bitmap and the runs are dropped; the per-fragment counts
        are brought up to date with exact integer adds, and the candidate
        flag recomputed from them — a mutation pays the fragment axis once,
        so the supersteps between mutations need not.
        """
        self._vertex_bitmap = None
        self._resident_runs = None
        if self._frag_res is None:
            return
        f, counts, _ = self._frag_res
        n = counts.size
        counts += np.bincount(loaded // f, minlength=n)
        counts -= np.bincount(evicted // f, minlength=n)
        self._frag_res = (f, counts, self._candidates(f, counts))

    def _candidates(self, f: int, counts: np.ndarray) -> bool:
        """Whether a fully resident and a fully absent fragment both exist —
        without both, §3.4's planner has nothing to pair.  Every fragment
        holds ``f`` chunks but the last, which holds the rest."""
        if counts.size == 0 or not (counts == 0).any():
            return False
        tail = self.n_chunks - (counts.size - 1) * f
        return bool(counts[-1] == tail or (counts[:-1] == f).any())

    def fragment_resident_counts(self, fragment_chunks: int) -> np.ndarray:
        """Per-fragment resident-chunk counts.

        The replacement planner's candidate filter needs these every
        iteration, but residency changes only on an actual swap / promote /
        shrink / top-up — so the reduceat is paid once per region and
        fragment size, and each mutation updates the counts in place (a
        caller that keeps the array across a mutation sees it change).
        """
        f = int(fragment_chunks)
        cached = self._frag_res
        if cached is not None and cached[0] == f:
            return cached[1]
        if self.n_chunks == 0:
            counts = np.zeros(0, dtype=np.int64)
        else:
            bounds = np.arange(0, self.n_chunks, f, dtype=np.int64)
            counts = np.add.reduceat(self.resident, bounds, dtype=np.int64)
        self._frag_res = (f, counts, self._candidates(f, counts))
        return counts

    @property
    def fragment_candidates(self) -> bool | None:
        """Whether a fully resident and a fully absent fragment both exist,
        at the fragment size :meth:`fragment_resident_counts` last counted
        (None before it ever has)."""
        return None if self._frag_res is None else self._frag_res[2]

    def resident_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal runs of resident chunks: ``(starts, ends, prefix)``.

        ``[starts[i], ends[i])`` are the half-open resident intervals in
        increasing order; ``prefix`` is the exclusive prefix sum of their
        lengths (``prefix[i]`` = resident chunks before run ``i``), sized
        ``len(starts) + 1``.  Cached; every residency mutation invalidates.
        """
        if self._resident_runs is None:
            r = self.resident
            if r.size == 0:
                empty = np.empty(0, dtype=np.int64)
                self._resident_runs = (empty, empty,
                                       np.zeros(1, dtype=np.int64))
            else:
                d = np.diff(r.view(np.int8))
                starts = np.nonzero(d == 1)[0] + 1
                ends = np.nonzero(d == -1)[0] + 1
                if r[0]:
                    starts = np.concatenate(([0], starts))
                if r[-1]:
                    ends = np.concatenate((ends, [r.size]))
                prefix = np.zeros(starts.size + 1, dtype=np.int64)
                np.cumsum(ends - starts, out=prefix[1:])
                self._resident_runs = (starts, ends, prefix)
        return self._resident_runs

    def touched_chunk_runs(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Merged chunk intervals the active vertices' edge ranges touch.

        The sparse counterpart of :meth:`chunk_touch_counts`: returns
        half-open ``(starts, ends)`` with overlapping/adjacent per-vertex
        spans merged, so ``O(active vertices)`` work replaces the dense
        chunk-length sweep.  A chunk is in some run exactly when its dense
        touch count is nonzero (per-vertex chunk spans are nondecreasing in
        vertex id, which is what makes the single-pass merge valid).
        """
        empty = np.empty(0, dtype=np.int64)
        if self.n_chunks == 0:
            return empty, empty
        vs = np.nonzero(active & self._has_edges)[0]
        if vs.size == 0:
            return empty, empty
        s = self._c_lo[vs]
        e = self._c_hi[vs] + 1
        brk = np.nonzero(s[1:] > e[:-1])[0] + 1
        run_s = s[np.concatenate(([0], brk))]
        run_e = e[np.concatenate((brk - 1, [e.size - 1]))]
        return run_s, run_e

    def resident_count_in_runs(self, run_s: np.ndarray, run_e: np.ndarray) -> int:
        """Number of resident chunks inside the given half-open intervals.

        Interval-list intersection against :meth:`resident_runs` —
        ``O((runs + resident runs) log resident runs)``, independent of the
        chunk count.
        """
        if run_s.size == 0:
            return 0
        starts, ends, prefix = self.resident_runs()
        if starts.size == 0:
            return 0

        def rank(x: np.ndarray) -> np.ndarray:
            """Resident chunks with id < x, for each x."""
            i = np.searchsorted(starts, x, side="right") - 1
            ic = np.maximum(i, 0)
            partial = np.minimum(x - starts[ic], ends[ic] - starts[ic])
            return np.where(i >= 0, prefix[ic] + partial, 0)

        return int((rank(run_e) - rank(run_s)).sum())

    def _resident_prefix(self) -> np.ndarray:
        """Inclusive prefix sum of ``resident``, with a leading zero.

        ``out[i]`` = number of resident chunks with id < ``i``.  Allocated
        per call: its one caller (``promote_vertices``, under the lazy-fill
        ablation) is rare, so no chunk-length scratch lives on the region.
        """
        cum = np.empty(self.n_chunks + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(self.resident, out=cum[1:])
        return cum

    def segment_touch_counts(self, active: np.ndarray) -> np.ndarray:
        """Active-vertex count per chunk-map *segment*.

        The per-chunk touch count is constant on a segment (see
        :class:`~repro.graph.csr.ChunkMap`), so this is the whole of
        :meth:`chunk_touch_counts` at ``O(V)`` instead of ``O(chunks)`` —
        what the Manager, the §3.4 hotness table and the Hybrid policy
        consume.  Same range-mark trick, over segment indices.
        """
        cmap = self.chunk_map
        vs = np.nonzero(active & self._has_edges)[0]
        if vs.size == 0:
            return np.zeros(cmap.n_segments, dtype=np.int64)
        diff = range_mark(cmap.s_lo[vs], cmap.s_hi[vs] + 1, cmap.n_segments)
        return np.cumsum(diff[:-1])

    def chunk_touch_counts(self, active: np.ndarray) -> np.ndarray:
        """Per-chunk access counts from the active vertices' edge ranges.

        The dense view of :meth:`segment_touch_counts`, for tests and tools;
        nothing on a per-iteration path builds it.
        """
        return np.repeat(self.segment_touch_counts(active),
                         self.chunk_map.seg_len)

    def split_by_residency(
        self, runs: ChunkRuns,
    ) -> tuple[ChunkRuns, np.ndarray, np.ndarray]:
        """Cut ``runs`` where residency flips: ``(pieces, origin, resident)``.

        Every piece is wholly resident or wholly absent (``resident[j]``);
        ``origin[j]`` is the input run it was cut from.
        """
        starts, ends, _ = self.resident_runs()
        # Maximal runs never touch, so start/end interleaved is sorted.
        pieces, origin = runs.cut(np.stack((starts, ends), axis=1).ravel())
        return pieces, origin, self.resident[pieces.starts]

    @property
    def free_chunks(self) -> int:
        return self.capacity_chunks - self.resident_chunks

    # --------------------------------------------------- residency handoff
    def compatible_with(self, graph: CSRGraph, chunk_bytes: int) -> bool:
        """Whether this region's residency is valid for a new run.

        The chunk table indexes byte offsets of *this* edge array at *this*
        chunk granularity; warm reuse across requests (the serving layer's
        cross-request Static Region reuse) is only sound when both match.
        Identity, not equality: a re-weighted or re-ordered graph changes
        byte offsets even when vertex/edge counts agree.
        """
        return self.graph is graph and self.chunk_bytes == int(chunk_bytes)

    def top_up(self) -> int:
        """Refill free capacity with the lowest-id non-resident chunks.

        The warm-start refill: after a capacity squeeze (or a capacity
        grow-back) dropped part of a warm region, only the *missing* chunks
        need transferring — the survivors are the whole point of the
        handoff.  Fills all free capacity and returns the count marked
        resident; the caller charges the corresponding gather + H2D.
        """
        budget = self.free_chunks
        if budget <= 0 or self.n_chunks == 0:
            return 0
        missing = np.nonzero(~self.resident)[0]
        take = missing[:budget]
        if take.size == 0:
            return 0
        self.resident[take] = True
        self._moved(_NONE, take)
        return int(take.size)

    # ------------------------------------------------------------ mutation
    def promote_vertices(self, mask: np.ndarray) -> int:
        """Lazy fill: keep on-demand-fetched vertices' chunks in the region.

        Takes vertices from ``mask`` in id order and marks their whole chunk
        spans resident until the region is full (promoting partial vertices
        would buy no coverage).  The data is already on the device — it just
        arrived in the On-demand Region — so promotion is a device-side copy
        and costs no PCIe traffic.  Returns the number of chunks promoted.
        """
        budget = self.free_chunks
        if budget <= 0 or self.n_chunks == 0:
            return 0
        vs = np.nonzero(mask & self._has_edges)[0]
        if vs.size == 0:
            return 0
        c_lo, c_hi = self._c_lo[vs], self._c_hi[vs]
        cum = self._resident_prefix()
        new_per_vertex = (c_hi - c_lo + 1) - (cum[c_hi + 1] - cum[c_lo])
        take = np.cumsum(new_per_vertex) <= budget
        if not take.any():
            return 0
        c_lo, c_hi = c_lo[take], c_hi[take]
        # Same range-mark as chunk_touch_counts, but only coverage (> 0)
        # matters, not the counts themselves.
        diff = range_mark(c_lo, c_hi + 1, self.n_chunks)
        new = np.flatnonzero((np.cumsum(diff[:-1]) > 0) & ~self.resident)
        self.resident[new] = True
        self._moved(_NONE, new)
        return int(new.size)

    def swap(self, evict: np.ndarray, load: np.ndarray) -> int:
        """Apply a replacement plan; returns bytes transferred H2D.

        ``evict`` must be resident, ``load`` non-resident, neither may name
        a chunk twice, and the region may not overflow its capacity.  Edge
        data is read-only, so eviction costs no writeback.
        """
        evict = np.asarray(evict, dtype=np.int64)
        load = np.asarray(load, dtype=np.int64)
        for name, ids in (("evict", evict), ("load", load)):
            # A sort, not a set routine: plans are small, and a repeat would
            # pass the capacity check wrongly and be counted twice.
            if ids.size > 1 and not np.diff(np.sort(ids)).all():
                raise ValueError(f"swap: {name} names a chunk twice")
        if evict.size and not self.resident[evict].all():
            raise ValueError("evicting a non-resident chunk")
        if load.size and self.resident[load].any():
            raise ValueError("loading an already-resident chunk")
        if self.resident_chunks - evict.size + load.size > self.capacity_chunks:
            raise ValueError("swap would overflow the static region")
        self.resident[evict] = False
        self.resident[load] = True
        self._moved(evict, load)
        return int(load.size) * self.chunk_bytes

    def shrink_to(self, capacity_bytes: int) -> int:
        """Adaptive repartition (Eq. 3): give chunks back to the on-demand region.

        Drops the coldest-positioned (highest-id) resident chunks first —
        eviction is free (read-only data) — and returns the number of chunks
        released.
        """
        new_cap = max(int(capacity_bytes) // self.chunk_bytes, 0)
        if new_cap >= self.capacity_chunks:
            self.capacity_chunks = new_cap
            return 0
        excess = self.resident_chunks - new_cap
        self.capacity_chunks = new_cap
        if excess <= 0:
            return 0
        resident_ids = np.nonzero(self.resident)[0]
        victims = resident_ids[-excess:]
        self.resident[victims] = False
        self._moved(victims, _NONE)
        return int(victims.size)
