"""Deliberately naive, chunk-length references for the segment chunk axis.

These are the dense implementations ``src/`` used before touch counts, the
§3.4 hotness table and Hybrid's per-chunk policy moved onto chunk-map
segments (ROADMAP "Independent checks": twins kept only as oracles live in
``tests/``).  One entry per chunk, no run-length reasoning anywhere — the
properties in ``test_chunk_axis_properties.py`` hold the segment code to
them.  Do not optimise: being obviously right is their only job.

Oracle table — each oracle's name and kind (``spec``: written from a
definition)::

    dense_touch_counts  spec
    fragment_counts     spec
    DenseHotnessTable   spec
    dense_hybrid_plan   spec
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import AccessPath

_PATH_CODES = np.array(
    [int(AccessPath.MIGRATE), int(AccessPath.GATHER), int(AccessPath.DIRECT)],
    dtype=np.int8,
)


def dense_touch_counts(cmap, active: np.ndarray) -> np.ndarray:
    """Per-chunk count of active vertices whose edge range touches it."""
    counts = np.zeros(cmap.n_chunks, dtype=np.int64)
    for v in np.nonzero(active & cmap.has_edges)[0]:
        counts[cmap.c_lo[v]:cmap.c_hi[v] + 1] += 1
    return counts


def fragment_counts(resident: np.ndarray, f: int):
    """``(per-fragment resident counts, candidates)`` — what a region keeps
    for the §3.4 planner: candidates is whether a fully resident and a fully
    absent fragment both exist (the last fragment holds the rest)."""
    bounds = np.arange(0, resident.size, f, dtype=np.int64)
    counts = np.array([int(resident[lo:lo + f].sum()) for lo in bounds],
                      dtype=np.int64)
    sizes = np.minimum(f, resident.size - bounds)
    return counts, bool((counts == sizes).any() and (counts == 0).any())


class DenseHotnessTable:
    """The §3.4 counters as two chunk-length arrays (the pre-segment table)."""

    def __init__(self, n_chunks: int, policy: str = "last",
                 stale_threshold: int = 1) -> None:
        self.n_chunks = int(n_chunks)
        self.policy = policy
        self.stale_threshold = stale_threshold
        self.cumulative = np.zeros(self.n_chunks, dtype=np.int64)
        self.last = np.zeros(self.n_chunks, dtype=np.int64)

    def update(self, touch_counts: np.ndarray) -> None:
        touched = touch_counts > 0
        self.cumulative += touched
        self.last = touched.astype(np.int64)

    def staleness(self) -> np.ndarray:
        if self.policy == "cumulative":
            return self.cumulative > self.stale_threshold
        return self.last < self.stale_threshold

    def hotness(self) -> np.ndarray:
        return self.last if self.policy == "last" else -self.cumulative

    def plan_swaps(self, resident: np.ndarray, budget_chunks: int,
                   fragment_chunks: int = 64):
        """``(evict, load)`` chunk ids — the dense reduceat planner."""
        empty = np.empty(0, dtype=np.int64)
        if budget_chunks <= 0 or self.n_chunks == 0 or fragment_chunks <= 0:
            return empty, empty
        f = int(fragment_chunks)
        boundaries = np.arange(0, self.n_chunks, f, dtype=np.int64)
        sizes = np.full(boundaries.size, f, dtype=np.int64)
        sizes[-1] = self.n_chunks - int(boundaries[-1])
        resident_counts = np.add.reduceat(resident, boundaries, dtype=np.int64)
        full = resident_counts == sizes
        absent = resident_counts == 0
        if not full.any() or not absent.any():
            return empty, empty
        stale_cnt = np.add.reduceat(self.staleness(), boundaries,
                                    dtype=np.int64)
        evict_frags = np.nonzero(full & (stale_cnt * 2 > sizes))[0]
        load_frags = np.nonzero(absent & (stale_cnt * 2 <= sizes))[0]
        if evict_frags.size == 0 or load_frags.size == 0:
            return empty, empty
        k = min(budget_chunks // f, evict_frags.size, load_frags.size)
        if k <= 0:
            return empty, empty
        hot = np.add.reduceat(self.hotness(), boundaries, dtype=np.int64)
        evict_frags = evict_frags[np.argsort(hot[evict_frags], kind="stable")[:k]]
        load_frags = load_frags[np.argsort(-hot[load_frags], kind="stable")[:k]]

        def expand(frags):
            ids = (frags[:, None] * f + np.arange(f)[None, :]).ravel()
            return ids[ids < self.n_chunks]

        evict, load = expand(evict_frags), expand(load_frags)
        k_chunks = min(evict.size, load.size)
        return evict[:k_chunks], load[:k_chunks]


def dense_hybrid_plan(policy, chunk_ids: np.ndarray, touch_counts=None,
                      cumulative=None) -> np.ndarray:
    """``HybridPolicy.plan`` scored once per chunk id (the pre-segment body).

    ``policy`` supplies the cost-model inputs (``spec``, ``region``,
    ``chunk_bytes``, ``reuse_horizon``, ``bytes_per_touch``,
    ``migrate_budget``); ``cumulative`` is the dense §3.4 counter array.
    """
    ids = np.asarray(chunk_ids, dtype=np.int64)
    paths = np.empty(len(ids), dtype=np.int8)
    resident = policy.region.resident[ids]
    paths[resident] = int(AccessPath.RESIDENT)
    need = np.nonzero(~resident)[0]
    if need.size == 0:
        return paths
    touches = (
        np.asarray(touch_counts, dtype=np.float64)[need]
        if touch_counts is not None else np.ones(need.size)
    )
    needed = np.clip(touches * policy.bytes_per_touch, 1.0, policy.chunk_bytes)
    link = policy.spec.pcie
    gather = policy.spec.gather
    history = (
        np.minimum(cumulative[ids[need]], policy.reuse_horizon)
        .astype(np.float64)
        if cumulative is not None else np.zeros(need.size)
    )
    reuse = 1.0 + history
    n_cand = float(need.size)
    cost_migrate = (
        link.latency / n_cand + policy.chunk_bytes / link.bandwidth
    ) / reuse
    cost_gather = (
        needed / min(gather.bandwidth, link.bandwidth)
        + (link.latency + gather.setup) / n_cand
    )
    sectors = np.ceil(needed / link.sector)
    cost_direct = (
        sectors * link.direct_latency
        + sectors * link.sector / link.direct_bandwidth
    )
    costs = np.stack([cost_migrate, cost_gather, cost_direct])
    chosen = _PATH_CODES[np.argmin(costs, axis=0)].copy()
    mig = np.nonzero(chosen == int(AccessPath.MIGRATE))[0]
    budget = max(int(policy.migrate_budget), 0)
    if mig.size > budget:
        runner_up = np.where(costs[1, mig] <= costs[2, mig],
                             _PATH_CODES[1], _PATH_CODES[2])
        saving = np.minimum(costs[1, mig], costs[2, mig]) - costs[0, mig]
        keep = np.argsort(-saving, kind="stable")[:budget]
        overflow = np.ones(mig.size, dtype=bool)
        overflow[keep] = False
        chosen[mig[overflow]] = runner_up[overflow]
    paths[need] = chosen
    return paths
