"""The Ascetic engine facade.

Wires the pieces of :mod:`repro.core` into the common
:class:`~repro.engines.base.Engine` interface: sizes the two regions with
Eq. 2, prefills the Static Region, and delegates each iteration to the
Manager's overlapped schedule.  The paper's ablation switches are
:class:`AsceticEngine` constructor keywords, like every engine's options —
Eq. 2's ``k``, Fig. 8's ``overlap``, Fig. 10's ``forced_ratio``, §3.3's
``adaptive`` and §5's ``fill`` and ``replacement``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.manager import (IterationOutcome, RegionEngine, run_iteration,
                                shrink_region)
from repro.core.ratio import DEFAULT_K, region_bytes, static_ratio
from repro.core.replacement import HotnessTable
from repro.core.static_region import DEFAULT_CHUNK_BYTES, FILLS
from repro.engines.base import RunResult
from repro.graph.csr import CSRGraph
from repro.gpusim.device import GPUSpec, SimulatedGPU

__all__ = ["AsceticEngine", "policy_for"]

#: Replacement swaps contiguous *fragments* of chunks (Fig. 6), sized here
#: in paper-scale bytes; chunk-scattered swaps would destroy vertex-level
#: coverage.
FRAGMENT_BYTES = 1024 * 1024


def policy_for(program: VertexProgram) -> str:
    """§3.4's hotness policy: last-iteration counters for PR, cumulative ones
    for the monotone programs (each edge region is read a bounded number of
    times)."""
    return "last" if program.name == "PR" else "cumulative"


class AsceticEngine(RegionEngine):
    """The paper's engine: Static Region + On-demand Region + overlap.

    Sizing follows Eq. 2 (or ``forced_ratio``) and the per-iteration
    schedule is :func:`repro.core.manager.run_iteration`.  The keywords
    beyond the base :class:`~repro.engines.base.Engine` set are the paper's
    ablation switches (defaults follow §4.1):

    k:
        Expected active-edge fraction per iteration, Eq. 2's K (paper
        default 10 %).
    fill:
        How the Static Region gets its content.  ``front`` (default) /
        ``rear`` / ``random`` prefill the region eagerly during setup with
        the §5 policies (the paper measures < 5 % runtime difference
        between them); the prefill transfer is charged to the clock and
        recorded separately in ``extra["static_prefill_bytes"]`` because
        the paper's transfer numbers (Table 5's BFS/GS at 0.02×, Fig. 7's
        note) report *processing* transfers without the prestore.
        ``lazy`` instead keeps on-demand data as it arrives until the
        region is full — no prefill traffic at all.
    overlap:
        Overlap static compute with the on-demand chain (§3.2).  Disabling
        isolates Fig. 8's *Static savings*.
    replacement:
        Run the §3.4 chunk-replacement server (see :func:`policy_for`).
    adaptive:
        Apply the §3.3 Eq. 3 repartition check each iteration.
    forced_ratio:
        Override Eq. 2 with a fixed static-region share (Fig. 10 sweep).
    """

    name = "Ascetic"

    def __init__(
        self,
        spec: GPUSpec | None = None,
        max_iterations: int | None = None,
        data_scale: float = 1.0,
        record_events: bool = False,
        fault_plan=None,
        seed: int = 0,
        k: float = DEFAULT_K,
        fill: str = "front",
        overlap: bool = True,
        replacement: bool = True,
        adaptive: bool = True,
        forced_ratio: Optional[float] = None,
    ) -> None:
        super().__init__(spec, max_iterations, data_scale, record_events,
                         fault_plan, seed)
        if fill not in FILLS:
            raise ValueError(f"unknown fill policy {fill!r} ({'/'.join(FILLS)})")
        self.k = k
        self.fill = fill
        self.overlap = overlap
        self.replacement = replacement
        self.adaptive = adaptive
        self.forced_ratio = forced_ratio

    # ----------------------------------------------------------- resilience
    def _alloc_static_region(self, gpu: SimulatedGPU, want: int,
                             chunk_bytes: int):
        """Allocate the Static Region with graceful degradation.

        The ladder: an *injected* (transient) failure gets one plain retry
        at the same size; any further failure halves the request
        (chunk-aligned, additionally capped by the allocator's reported
        ``available`` for real capacity pressure) — reusing the Eq. 3
        shrink direction — until it either fits or reaches zero bytes,
        Subway-style pure on-demand streaming.  The zero-byte request
        always succeeds, so the ladder terminates and real exhaustion can
        only propagate for the empty-region case that cannot be satisfied
        at all.
        """
        from repro.gpusim.memory import GPUOutOfMemory

        nbytes = (want // chunk_bytes) * chunk_bytes
        retried = False
        while True:
            if 0 < nbytes < chunk_bytes:
                nbytes = 0
            try:
                return gpu.memory.alloc("static_region", nbytes)
            except GPUOutOfMemory as exc:
                if exc.injected and not retried:
                    retried = True
                    continue
                if nbytes == 0:
                    raise
                limit = nbytes // 2
                if not exc.injected and exc.available is not None:
                    limit = min(limit, exc.available)
                nbytes = (limit // chunk_bytes) * chunk_bytes

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Squeeze response: shrink static first (Eq. 3 direction), then
        the on-demand region down to a one-chunk floor."""
        freed = 0
        chunk = self._region.chunk_bytes
        if self._static_alloc.nbytes > 0:
            give_chunks = -(-min(self._static_alloc.nbytes, need) // chunk)
            freed = shrink_region(gpu, self._region, self._static_alloc,
                                  self._static_alloc.nbytes - give_chunks * chunk)
            if freed:
                gpu.events.marker(
                    "static-shrink", "squeeze", gpu.clock.now,
                    extra=(("static_bytes", float(self._static_alloc.nbytes)),))
        if freed < need and self._ondemand_alloc.nbytes > chunk:
            give = min(self._ondemand_alloc.nbytes - chunk, need - freed)
            gpu.memory.resize(self._ondemand_alloc,
                              self._ondemand_alloc.nbytes - give)
            freed += give
            gpu.events.marker(
                "ondemand-shrink", "squeeze", gpu.clock.now,
                extra=(("ondemand_bytes", float(self._ondemand_alloc.nbytes)),))
        return freed

    # ----------------------------------------------------------- lifecycle
    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram) -> None:
        self._alloc_retry(gpu, "vertex_state", self._vertex_state_bytes(graph))
        gpu.h2d(self._vertex_state_bytes(graph), label="vertex-state")
        available = gpu.memory.available
        ratio = self.forced_ratio
        if ratio is None:
            ratio = static_ratio(self.k, graph.edge_array_bytes, available)
        # Chunk geometry scales with the data so the chunk *count* (and the
        # hotness table the replacement server manages) matches paper scale.
        chunk_bytes = self.scaled_bytes(DEFAULT_CHUNK_BYTES)
        self._fragment_chunks = max(
            self.scaled_bytes(FRAGMENT_BYTES) // chunk_bytes, 1
        )
        static_bytes, _ = region_bytes(available, ratio, align=chunk_bytes)
        # Warm-start (serving): the cross-request analogue of the paper's
        # cross-iteration reuse.  The residency survives; capacity is
        # reconciled to this run's Eq. 2 target.
        self._adopt_region(graph, chunk_bytes, static_bytes, self.fill,
                           self._fragment_chunks)
        real_static = self._region.capacity_chunks * chunk_bytes
        self._static_alloc = self._alloc_static_region(gpu, real_static,
                                                       chunk_bytes)
        if self._static_alloc.nbytes < real_static:
            # Degraded: the ladder granted less than Eq. 2 asked for; shrink
            # the region to match (zero bytes = pure on-demand streaming)
            # and hand the difference to the on-demand region.  On a warm
            # start the dropped chunks are invalidated warmth.
            self._warm_invalidated += self._region.shrink_to(
                self._static_alloc.nbytes)
            ratio = self._static_alloc.nbytes / available if available else 0.0
            gpu.events.marker(
                "static-degrade", "alloc-ladder", gpu.clock.now,
                extra=(("wanted", float(real_static)),
                       ("granted", float(self._static_alloc.nbytes))))
        self._ondemand_alloc = self._alloc_retry(
            gpu, "ondemand_region", available - self._static_alloc.nbytes)
        # The hotness table restarts per request: replacement policy depends
        # on the program, and stale counters from another algorithm's access
        # pattern would mislead the §3.4 server.
        self._hotness = HotnessTable(
            self._region.n_chunks,
            policy=policy_for(program),
            chunk_map=self._region.chunk_map,
        )
        if self._warm_hit:
            # Fill-skip: resident chunks stayed on the device between
            # requests, so only chunks lost to capacity pressure (squeezes,
            # degraded allocation) are re-transferred.
            self._warm_bytes = self._region.resident_bytes
            refill_chunks = 0
            if self.fill != "lazy" and self._region.free_chunks > 0:
                refill_chunks = self._region.top_up()
            self._refill_bytes = refill_chunks * chunk_bytes
            self._prefill_bytes = self._refill_bytes
            if self._refill_bytes:
                gpu.cpu_gather(self._refill_bytes, label="refill-gather")
                with gpu.phase("Tprefill"):
                    gpu.h2d(self._refill_bytes, label="static-refill")
            gpu.events.marker(
                "warm-hit", "static-region", gpu.clock.now,
                extra=(("resident_chunks", float(self._region.resident_chunks)),
                       ("skipped_bytes", float(self._warm_bytes)),
                       ("refill_bytes", float(self._refill_bytes)),
                       ("invalidated_chunks", float(self._warm_invalidated))))
        else:
            self._warm_bytes = 0
            self._refill_bytes = 0
            # Eager prefill of the Static Region (counted in Table 5,
            # excluded from Fig. 7 via the separate extra below).  Lazy fill
            # moves nothing here — the region fills from on-demand traffic.
            self._prefill_bytes = self._region.resident_bytes
            if self._prefill_bytes:
                gpu.cpu_gather(self._prefill_bytes, label="prefill-gather")
                with gpu.phase("Tprefill"):
                    gpu.h2d(self._prefill_bytes, label="static-prefill")
        self._ratio = ratio
        self._outcomes: List[IterationOutcome] = []

    def _iteration(
        self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram, state: ProgramState
    ) -> None:
        self._outcomes.append(run_iteration(
            gpu, graph, program, state, region=self._region,
            hotness=self._hotness, static_alloc=self._static_alloc,
            ondemand_alloc=self._ondemand_alloc, overlap=self.overlap,
            replacement=self.replacement, adaptive=self.adaptive,
            lazy_fill=self.fill == "lazy", fragment_chunks=self._fragment_chunks))

    def _report_extra(self, result: RunResult, gpu: SimulatedGPU, graph: CSRGraph) -> None:
        # Byte quantities are reported at paper scale, like the metrics.
        up = 1.0 / self.data_scale
        result.extra["static_ratio"] = float(self._ratio)
        result.extra["static_prefill_bytes"] = self._prefill_bytes * up
        # On a warm hit static_prefill_bytes above is only the refill.
        self._report_warm(result)
        result.extra["static_region_bytes"] = self._static_alloc.nbytes * up
        result.extra["ondemand_region_bytes"] = self._ondemand_alloc.nbytes * up
        result.extra["swap_bytes"] = sum(o.swap_bytes for o in self._outcomes) * up
        result.extra["repartitions"] = float(sum(o.repartitioned for o in self._outcomes))
        result.extra["static_edges"] = float(sum(o.static_edges for o in self._outcomes))
        result.extra["ondemand_edges"] = float(sum(o.ondemand_edges for o in self._outcomes))
