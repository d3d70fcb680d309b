"""The GPU-side Manager: one overlapped Ascetic iteration (§3.1–§3.4).

Schedule per iteration (Fig. 4 numbering, Fig. 5 timeline):

1. **GenDataMap** — a GPU scan produces OndemandMap = ActiveBitmap ∧
   ¬StaticBitmap in one operation (Fig. 4's ActiveBitmap ⊕ StaticMap;
   ``tests/test_bitmaps.py`` specifies the identity).
2. **Adaptive repartition** (§3.3) — if the measured on-demand volume
   overflows its region while the static region is cold, shrink the static
   region by Eq. 3, return the chunks' memory to the on-demand region, and
   regenerate the map.
3. **Static computing** — the GPU processes StaticNodes' edges straight out
   of the Static Region (phase ``Tsr``); *simultaneously* the On-demand
   Engine gathers the OndemandNodes' edges on the CPU (``Tfilling``) and
   streams them over PCIe (``Ttransfer``).
4. **On-demand computing** — the GPU lane picks up each transferred round
   (``Tondemand``); rounds pipeline (round r+1 gathers while round r
   computes).  Steps 3–4's chain is
   :func:`repro.gpusim.rounds.stream_rounds`, shared with Subway and Hybrid.
5. **Static update** (§3.4) — while the GPU chews on the on-demand data the
   copy engine is idle, so the replacement server swaps stale chunks into
   the Static Region, bounded by that idle window (``Tswap``).

``overlap=False`` degrades step 3/4 to the strictly sequential baseline
schedule (Fig. 5 top) — that switch is exactly how the paper isolates
*Static savings* from *Overlapping savings* in Fig. 8.

Hybrid (:mod:`repro.engines.hybrid`, HyTGraph's per-chunk choice over the
same :class:`StaticRegion`) opens every superstep like step 1, so both
engines call :func:`superstep_frame`, and both are a :class:`RegionEngine`
(the warm-region handoff between serving requests).

Touch accounting has one representation: per-segment counts, fed to the
§3.4 hotness table and, when the log records, to the access plan — the
touched chunk intervals cut by residency, one ``access-path`` marker per
run.  A lean superstep builds no plan.  Nothing chunk-length is built
either way, and ops are submitted the same way either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.engines.base import (AccessPath, Engine, RunPlan, RunResult,
                                emit_access_plan)
from repro.core.ondemand import OnDemandPlan, plan_ondemand
from repro.core.ratio import check_repartition
from repro.core.replacement import HotnessTable
from repro.core.static_region import StaticRegion
from repro.graph.csr import CSRGraph
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.memory import Allocation
from repro.gpusim.rounds import stream_rounds

__all__ = ["IterationOutcome", "RegionEngine", "SuperstepFrame",
           "run_iteration", "shrink_region", "superstep_frame"]


@dataclass
class IterationOutcome:
    """Accounting detail of one Ascetic iteration (consumed by analysis)."""

    static_edges: int = 0
    ondemand_edges: int = 0
    ondemand_bytes: int = 0
    swap_bytes: int = 0
    repartitioned: bool = False
    n_rounds: int = 0
    promoted_chunks: int = 0


@dataclass(frozen=True)
class SuperstepFrame:
    """How an Ascetic or Hybrid superstep opens (Fig. 4 ➊).

    Every chain of the superstep starts ``after=t_map``.  StaticMap and
    OndemandMap partition the active mask, so the edges the region serves in
    place are the (memoized) total minus the plan's — no second walk.
    """

    t_map: float
    #: Active vertices per chunk-map segment (access plan and hotness).
    seg_touch: np.ndarray
    total_edges: int
    odmap: np.ndarray
    plan: OnDemandPlan
    #: The on-demand buffer, floored at one chunk: the size of one round.
    round_bytes: int

    @property
    def static_edges(self) -> int:
        return self.total_edges - self.plan.n_edges


def superstep_frame(gpu: SimulatedGPU, graph: CSRGraph, state: ProgramState,
                    region: StaticRegion, stream_bytes: int,
                    reuse: Optional[SuperstepFrame] = None) -> SuperstepFrame:
    """The GenDataMap scan, the maps and the on-demand plan of one superstep.

    A degenerate (≈0-byte) ``stream_bytes`` still streams chunk by chunk —
    the pathological regime the right edge of Fig. 10 exposes.  ``reuse``
    (the superstep's first frame) makes this §3.3's ``regen-datamap`` after
    an Eq. 3 repartition, keeping the touches and the edge total, which
    residency does not change.
    """
    label = "gen-datamap" if reuse is None else "regen-datamap"
    with gpu.phase("Tmap"):
        t_map = gpu.vertex_scan(graph.n_vertices, passes=2, label=label)
    odmap = state.active & ~region.vertex_static_bitmap()
    round_bytes = max(stream_bytes, region.chunk_bytes)
    plan = plan_ondemand(graph, odmap, round_bytes)
    # Touches after the plan: peak RSS follows the allocation order, and
    # this is the order Ascetic always had (ROADMAP 6f).
    if reuse is None:
        seg_touch = region.segment_touch_counts(state.active)
        total_edges = state.active_edges(graph)
    else:
        seg_touch, total_edges = reuse.seg_touch, reuse.total_edges
    return SuperstepFrame(t_map, seg_touch, total_edges, odmap, plan, round_bytes)


def shrink_region(gpu: SimulatedGPU, region: StaticRegion, alloc: Allocation,
                  capacity_bytes: int) -> int:
    """Shrink ``region`` to ``capacity_bytes`` and its allocation with it.

    The one place a region's allocation is resized (Eq. 3's repartition,
    both engines' squeeze responses); returns the bytes given back.
    """
    region.shrink_to(capacity_bytes)
    kept = region.capacity_chunks * region.chunk_bytes
    freed = alloc.nbytes - kept
    gpu.memory.resize(alloc, kept)
    return freed


def run_iteration(
    gpu: SimulatedGPU,
    graph: CSRGraph,
    program: VertexProgram,
    state: ProgramState,
    region: StaticRegion,
    hotness: HotnessTable,
    static_alloc: Allocation,
    ondemand_alloc: Allocation,
    overlap: bool = True,
    replacement: bool = True,
    adaptive: bool = True,
    lazy_fill: bool = False,
    fragment_chunks: int = 64,
) -> IterationOutcome:
    """Schedule one iteration; returns its accounting."""
    out = IterationOutcome()
    bpe = graph.bytes_per_edge

    # ➊ Generate the data maps (two bitmap passes + compaction scan).
    frame = superstep_frame(gpu, graph, state, region, ondemand_alloc.nbytes)

    # ➋ Adaptive repartitioning (§3.3, Eq. 3).  During a lazy warm-up the
    # region is empty by construction, which would read as "under-utilized"
    # and shrink it to nothing — the check only makes sense once filled.
    if adaptive and not (lazy_fill and region.free_chunks > 0):
        v_static = frame.static_edges * bpe
        v_total = v_static + frame.plan.edge_bytes
        decision = check_repartition(
            v_ondemand=frame.plan.total_bytes,
            ondemand_capacity=ondemand_alloc.nbytes,
            v_static=v_static,
            static_capacity=max(static_alloc.nbytes, 1),
            v_total=v_total,
            dataset_bytes=max(graph.edge_array_bytes, 1),
        )
        if decision.repartition and decision.shrink_bytes > 0:
            freed = shrink_region(gpu, region, static_alloc,
                                  static_alloc.nbytes - decision.shrink_bytes)
            gpu.memory.resize(ondemand_alloc, ondemand_alloc.nbytes + freed)
            out.repartitioned = True
            # Bitmaps changed: regenerate the data map (§3.3).
            frame = superstep_frame(gpu, graph, state, region,
                                    ondemand_alloc.nbytes, reuse=frame)

    plan, t_map, static_edges = frame.plan, frame.t_map, frame.static_edges
    out.static_edges = static_edges
    out.ondemand_edges = plan.n_edges
    out.ondemand_bytes = plan.total_bytes
    out.n_rounds = plan.n_rounds

    # The plan the movement below follows (§3.3): touched chunks resident
    # in the Static Region compute in place, the rest are gathered.  The
    # frame's touch counts are reused for the hotness update in step ➍½
    # (the active mask does not change mid-iteration).
    seg_touch = frame.seg_touch
    if gpu.events.record:
        pieces, origin, resident = region.split_by_residency(
            region.chunk_map.segment_runs(seg_touch > 0))
        paths = np.where(resident, AccessPath.RESIDENT, AccessPath.GATHER)
        emit_access_plan(gpu, "Ascetic", "chunk",
                         RunPlan(pieces, paths.astype(np.int8), origin))

    # ➌ Static computing — overlapped with the on-demand chain, or (Fig. 5
    # top) with the controlling thread waiting after every op.
    with gpu.phase("Tsr"):
        t_static = gpu.edge_kernel(static_edges, label="static-compute",
                                   atomics=program.atomics, after=t_map)
    if not overlap:
        gpu.sync(t_static)
    # The request/offset list download is PCIe traffic like the round
    # transfers it gates — unattributed it would vanish from the Fig. 8
    # breakdown (the null-phase regression test pins this).
    with gpu.phase("Ttransfer"):
        t_req = gpu.d2h(plan.request_bytes, label="od-requests", after=t_map)
    if not overlap:
        gpu.sync(t_req)
    # ➍ On-demand computing: the gather → transfer → compute rounds.
    stream_rounds(gpu, plan.total_bytes, plan.n_edges, plan.n_rounds,
                  atomics=program.atomics, after=t_req, sequential=not overlap)

    # ➍½ Lazy fill: on-demand data that just landed on the device is kept
    # in the Static Region while there is room (a device-side copy, free of
    # PCIe traffic).  Once the region is full, §3.4 replacement takes over.
    hotness.update(seg_touch)
    if lazy_fill and region.free_chunks > 0:
        promoted = region.promote_vertices(frame.odmap)
        out.promoted_chunks = promoted
    # ➎ Static update during the on-demand compute window (§3.4).
    elif replacement:
        budget_chunks = _swap_budget_chunks(gpu, region)
        counts = region.fragment_resident_counts(fragment_chunks)
        swap = hotness.plan_swaps(
            region.resident, budget_chunks, fragment_chunks,
            resident_counts=counts, candidates=region.fragment_candidates,
        )
        if swap.n_swaps:
            moved = region.swap(swap.evict, swap.load)
            out.swap_bytes = moved
            # Both halves of the replacement server's work belong to Tswap
            # (§3.4): the CPU staging of the incoming chunks and the H2D
            # copy it gates.  The copy must wait for the gather — without
            # the dependency the copy engine would start the swap
            # mid-gather, understating Tswap and overstating the overlap
            # the Fig. 8 breakdown isolates.
            with gpu.phase("Tswap"):
                t_gather = gpu.cpu_gather(moved, label="swap-gather")
                gpu.h2d(moved, label="static-swap", after=t_gather)

    gpu.sync()
    return out


def _swap_budget_chunks(gpu: SimulatedGPU, region: StaticRegion) -> int:
    """Chunks whose swap H2D provably fits the §3.4 idle window.

    The window is the copy engine's idle time under the GPU's current
    horizon.  Budgeting it at raw link bandwidth ignores what the
    ``static-swap`` H2D is actually charged — one per-transfer latency plus
    the *burst-rounded* payload — so a raw-bandwidth budget can plan swaps
    that overrun the window they were supposed to hide inside.  Instead
    divide by the full charged cost of one chunk: ``k`` chunks in one
    transfer then cost at most ``k`` times one chunk's ``copy_cost``, so
    any budgeted swap completes inside the window (the property the
    budget-window regression test pins).
    """
    window = max(gpu.gpu.busy_until - gpu.copy.busy_until, 0.0)
    if window <= 0.0:
        return 0
    # The window buys paper-scale seconds; chunks are scaled bytes, so
    # price the chunk at its *charged* size.
    pcie = gpu.spec.pcie
    payload = pcie.payload_bytes(gpu._scale(region.chunk_bytes))
    return int(window / sum(pcie.copy_cost(payload)))


class RegionEngine(Engine):
    """An engine keeping edge chunks in a :class:`StaticRegion` on the device.

    Ascetic's Static Region and Hybrid's migrated-chunk cache are the same
    object and survive a serving request the same way: ``_prepare`` calls
    :meth:`_adopt_region`, ``_report_extra`` calls :meth:`_report_warm`.
    """

    _region: Optional[StaticRegion] = None
    #: Region handed over by :meth:`reset_for_request` (None: fill cold).
    _warm_region: Optional[StaticRegion] = None
    #: Bytes re-sent to top up a warm region (Hybrid's cache never refills).
    _refill_bytes = 0

    def reset_for_request(self) -> None:
        """The next run reuses this run's region.

        Its residency models a region that stayed device-resident between
        requests, so the next run on the *same* graph object skips filling
        it; that run checks :meth:`StaticRegion.compatible_with` itself and
        falls back to a cold region when it does not hold.
        """
        super().reset_for_request()
        self._warm_region = self._region

    def _adopt_region(self, graph: CSRGraph, chunk_bytes: int,
                      capacity_bytes: int, fill: str,
                      fragment_chunks: int = 64) -> StaticRegion:
        """This run's region: the warm one shrunk or grown to
        ``capacity_bytes`` (``_warm_invalidated`` counts the chunks that
        dropped), else a cold one filled by ``fill``."""
        warm, self._warm_region = self._warm_region, None
        self._warm_hit = warm is not None and warm.compatible_with(graph, chunk_bytes)
        if self._warm_hit:
            self._region = warm
            self._warm_invalidated = warm.shrink_to(capacity_bytes)
        else:
            self._region = StaticRegion(graph, capacity_bytes=capacity_bytes,
                                        chunk_bytes=chunk_bytes, fill=fill,
                                        fragment_chunks=fragment_chunks)
            self._warm_invalidated = 0
        return self._region

    def _report_warm(self, result: RunResult) -> None:
        """The warm-start ledger the serve pool's ``fold_result`` reads."""
        up = 1.0 / self.data_scale
        result.extra["warm_start"] = 1.0 if self._warm_hit else 0.0
        result.extra["static_warm_bytes"] = self._warm_bytes * up
        result.extra["static_refill_bytes"] = self._refill_bytes * up
        result.extra["warm_invalidated_chunks"] = float(self._warm_invalidated)
