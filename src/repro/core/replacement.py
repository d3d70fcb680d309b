"""Data replacement in the Static Region (§3.4, Fig. 6).

Each 16 KB chunk carries an access counter, folded in once per iteration
(a chunk counts as *accessed* in an iteration if any active vertex's edge
range touched it).  Per §3.4 the staleness semantics are
algorithm-dependent:

* ``"cumulative"`` (BFS-like, monotone frontiers): a chunk accessed in more
  than ``stale_threshold`` past iterations has been consumed — monotone
  algorithms never return to it;
* ``"last"`` (PageRank-like, recurring frontiers): a chunk *not* accessed in
  the previous iteration is cold.

Swaps happen at **fragment** granularity — contiguous runs of chunks, the
"fragments" of Fig. 6.  Chunk-scattered swaps would be useless: the vertex-
level StaticBitmap requires a vertex's *whole* edge range resident, so
loading isolated hot chunks buys no coverage, while evicting isolated
chunks destroys the coverage of every vertex whose range they intersect.

The server only gets the PCIe time left while the GPU processes the
On-demand Region; the paper measures that window at ~28 % of iteration
time, enough for only ~2 % of the data (§5) — which is why replacement
barely moves the needle (the ablation benchmark reproduces that).

Representation: counters are stored per *segment* of the chunk map
(:class:`~repro.graph.csr.ChunkMap`) — touch counts are constant on a
segment, so the counters are too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import ChunkMap, ChunkRuns, fragment_geometry

__all__ = ["HotnessTable", "SwapPlan"]


@dataclass(frozen=True)
class SwapPlan:
    """Chunks to evict from / load into the Static Region this iteration."""

    evict: np.ndarray
    load: np.ndarray

    @property
    def n_swaps(self) -> int:
        return int(self.load.size)


class HotnessTable:
    """Per-chunk access counters driving §3.4 replacement, kept per segment.

    ``seg_cumulative[s]`` counts iterations in which the chunks of segment
    ``s`` were touched; ``seg_last[s]`` is 1 iff they were touched in the
    most recent one.  The segments, and the fragment geometry the planner
    reads, are ``chunk_map``'s — shared by every table and region over the
    map; without one every chunk is its own segment.
    """

    def __init__(self, n_chunks: int, policy: str = "last", stale_threshold: int = 1,
                 chunk_map: Optional[ChunkMap] = None):
        if policy not in ("last", "cumulative"):
            raise ValueError("policy must be 'last' or 'cumulative'")
        if stale_threshold < 0:
            raise ValueError("threshold must be non-negative")
        if policy == "last" and stale_threshold > 1:
            # ``last`` is binary (0/1), so any threshold above 1 marks every
            # chunk — including ones touched in the previous iteration —
            # stale, and the server churns the whole region pointlessly.
            raise ValueError(
                "stale_threshold must be 0 or 1 under the 'last' policy "
                "(last[c] is binary; a higher threshold marks every chunk stale)"
            )
        self.n_chunks = int(n_chunks)
        self.policy = policy
        self.stale_threshold = stale_threshold
        self.chunk_map = chunk_map
        if chunk_map is None:
            seg_bounds = np.arange(self.n_chunks + 1, dtype=np.int64)
        elif chunk_map.n_chunks != self.n_chunks:
            raise ValueError("chunk_map must have n_chunks chunks")
        else:
            seg_bounds = chunk_map.seg_bounds
        self.seg_bounds = seg_bounds
        self._seg_len = np.diff(seg_bounds)
        self.seg_cumulative = np.zeros(self._seg_len.size, dtype=np.int64)
        self.seg_last = np.zeros(self._seg_len.size, dtype=np.int64)

    # --------------------------------------------------------------- state
    def cumulative_at(self, chunk_ids: np.ndarray) -> np.ndarray:
        """``seg_cumulative`` of the segments holding the given chunks."""
        return self.seg_cumulative[
            np.searchsorted(self.seg_bounds, chunk_ids, side="right") - 1]

    # ------------------------------------------------------------- updates
    def update(self, touch_counts: np.ndarray) -> None:
        """Fold one iteration's access counts in (binarized).

        One count per segment: :meth:`StaticRegion.segment_touch_counts`
        for a table on the region's chunk map, the plain per-chunk array
        for a table built without one.
        """
        if touch_counts.shape != self.seg_last.shape:
            raise ValueError("touch_counts shape mismatch (one per segment)")
        touched = touch_counts > 0
        self.seg_cumulative += touched
        self.seg_last = touched.astype(np.int64)

    def update_runs(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """:meth:`update` from merged touched-chunk intervals: half-open,
        disjoint, increasing and on segment boundaries — what
        :meth:`StaticRegion.touched_chunk_runs` returns."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if starts.shape != ends.shape:
            raise ValueError("starts/ends shape mismatch")
        if np.any(ends <= starts) or np.any(starts[1:] <= ends[:-1]):
            raise ValueError("intervals must be disjoint and increasing")
        if not np.isin(np.concatenate((starts, ends)), self.seg_bounds).all():
            raise ValueError("intervals must lie on segment boundaries")
        mark = np.zeros(self._seg_len.size + 1, dtype=np.int64)
        mark[np.searchsorted(self.seg_bounds, starts)] = 1
        mark[np.searchsorted(self.seg_bounds, ends)] = -1
        self.update(np.cumsum(mark[:-1]))

    # -------------------------------------------------------------- scores
    def _seg_staleness(self) -> np.ndarray:
        if self.policy == "cumulative":
            # Consumed: touched in more than `threshold` iterations ever.
            return self.seg_cumulative > self.stale_threshold
        # Cold: not touched in the last iteration (threshold-adjusted).
        return self.seg_last < self.stale_threshold

    def _seg_hotness(self) -> np.ndarray:
        return self.seg_last if self.policy == "last" else -self.seg_cumulative

    def staleness(self) -> np.ndarray:
        """Boolean: chunks considered stale under the configured policy."""
        return np.repeat(self._seg_staleness(), self._seg_len)

    def hotness(self) -> np.ndarray:
        """Ranking score for swap-in candidates (hotter = better)."""
        return np.repeat(self._seg_hotness(), self._seg_len)

    # ---------------------------------------------------------------- plan
    def _fragment_geometry(self, f: int) -> Tuple[np.ndarray, ...]:
        """:func:`~repro.graph.csr.fragment_geometry` of this table's segments:
        the chunk map's shared copy, or built per call without a map (tests
        and tools)."""
        if self.chunk_map is None:
            return fragment_geometry(self.seg_bounds, f)
        return self.chunk_map.fragment_geometry(f)

    def _fragment_sums(self, per_segment: np.ndarray, f: int) -> np.ndarray:
        """Per-fragment chunk sums of a per-segment value: one segment
        prefix sum, evaluated at the fragment edges (exact integers)."""
        _, _, edge_seg, edge_off = self._fragment_geometry(f)
        value = per_segment.astype(np.int64)
        prefix = np.concatenate(([0], np.cumsum(value * self._seg_len)))
        at_edge = prefix[edge_seg] + value[edge_seg] * edge_off
        return at_edge[1:] - at_edge[:-1]

    def plan_swaps(
        self, resident: np.ndarray, budget_chunks: int, fragment_chunks: int,
        resident_counts: np.ndarray, candidates: bool,
    ) -> SwapPlan:
        """Pick a balanced fragment-aligned swap of ≤ ``budget_chunks`` chunks.

        A fragment qualifies for eviction when it is fully resident and
        majority-stale, for loading when fully absent and majority-fresh.
        The plan pairs the coldest eviction fragments with the hottest load
        fragments, one for one, so the region stays exactly as full.

        Residency changes far more rarely than the per-iteration planning
        cadence, so the caller passes what the region keeps current:
        ``resident_counts``, the per-fragment resident counts
        (:meth:`StaticRegion.fragment_resident_counts`), and ``candidates``,
        whether a fully resident and a fully absent fragment both exist.
        With ``candidates`` False the plan is empty before any fragment-axis
        work.
        """
        empty = np.empty(0, dtype=np.int64)
        if budget_chunks <= 0 or self.n_chunks == 0 or fragment_chunks <= 0:
            return SwapPlan(empty, empty)
        if resident.shape != (self.n_chunks,):
            raise ValueError("resident mask shape mismatch")
        if candidates is False:
            return SwapPlan(empty, empty)
        f = int(fragment_chunks)
        sizes = self._fragment_geometry(f)[1]
        full = resident_counts == sizes
        absent = resident_counts == 0
        stale_cnt = self._fragment_sums(self._seg_staleness(), f)
        evict_frags = np.nonzero(full & (stale_cnt * 2 > sizes))[0]
        load_frags = np.nonzero(absent & (stale_cnt * 2 <= sizes))[0]
        k = min(budget_chunks // f, evict_frags.size, load_frags.size)
        if k <= 0:
            return SwapPlan(empty, empty)
        hot = self._fragment_sums(self._seg_hotness(), f)
        evict_frags = evict_frags[np.argsort(hot[evict_frags], kind="stable")[:k]]
        load_frags = load_frags[np.argsort(-hot[load_frags], kind="stable")[:k]]
        evict = _expand_fragments(evict_frags, f, self.n_chunks)
        load = _expand_fragments(load_frags, f, self.n_chunks)
        # Keep the plan balanced chunk-for-chunk (tail fragment is shorter).
        k_chunks = min(evict.size, load.size)
        return SwapPlan(evict=evict[:k_chunks], load=load[:k_chunks])


def _expand_fragments(frags: np.ndarray, f: int, n_chunks: int) -> np.ndarray:
    """Chunk ids of the fragments, in that order, clipped to the chunk space."""
    return ChunkRuns(frags * f, np.minimum(frags * f + f, n_chunks)).ids()
