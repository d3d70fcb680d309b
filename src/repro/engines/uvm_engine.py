"""UVM — the Unified Virtual Memory baseline (§2.1, §4.4).

Vertices live in device memory; the edge array is a managed allocation whose
pages migrate to the GPU on first touch and are evicted LRU under
oversubscription.  Three modelled effects match the paper's §4.4 diagnosis:

* *page amplification*: a touched edge drags its whole page across PCIe,
  so sparse frontiers move far more bytes than they use;
* *defeated LRU*: reuse distances are the whole dataset, so pages are
  evicted long before their next-iteration reuse (Fig. 1's thrashing);
* *fault overhead*: faults stall the kernel; they are serviced in driver
  batches, each charged ``uvm_fault_latency`` on the GPU lane.

``pin_fraction`` reserves a prefix of the edge array on-device via
``cudaMemAdvise(SetPreferredLocation)`` — the paper's UVM baseline applies
such advice (§4.1).  Pinned pages never fault and never move again.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.engines.base import (AccessPath, Engine, RunPlan, RunResult,
                                emit_access_plan)
from repro.graph.csr import CSRGraph
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.uvm import UVMMemory

__all__ = ["UVMEngine"]


class UVMEngine(Engine):
    """The UVM baseline: demand-paged edges, LRU eviction, memadvise pinning.

    See the module docstring for the three modelled §4.4 penalties.
    """

    name = "UVM"

    def __init__(
        self,
        spec: GPUSpec | None = None,
        max_iterations: int | None = None,
        data_scale: float = 1.0,
        record_events: bool = False,
        fault_plan=None,
        seed: int = 0,
        pin_fraction: float = 0.25,
    ) -> None:
        super().__init__(spec, max_iterations, data_scale, record_events,
                         fault_plan, seed)
        if not 0.0 <= pin_fraction <= 1.0:
            raise ValueError("pin_fraction must be in [0, 1]")
        self.pin_fraction = pin_fraction

    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram) -> None:
        self._alloc_retry(gpu, "vertex_state", self._vertex_state_bytes(graph))
        capacity = gpu.memory.available
        self._pool_alloc = self._alloc_retry(gpu, "uvm_resident_pool", capacity)
        # Page geometry scales with the data so the page *count* — and with
        # it fault counts and LRU behaviour — matches the paper-scale run.
        self._uvm = UVMMemory(
            managed_bytes=graph.edge_array_bytes,
            capacity_bytes=capacity,
            page_size=self.scaled_bytes(gpu.spec.uvm_page_size),
            events=gpu.events,
            clock=gpu.clock,
        )
        gpu.h2d(self._vertex_state_bytes(graph), label="vertex-state")
        if self.pin_fraction > 0.0 and self._uvm.n_pages:
            # Pin a prefix of the edge array sized relative to *capacity*
            # (pinning relative to the dataset could starve the pager).
            n_pin = min(
                int(self._uvm.capacity_pages * self.pin_fraction),
                self._uvm.n_pages,
                max(self._uvm.capacity_pages - 1, 0),
            )
            if n_pin > 0:
                moved = self._uvm.advise_pin(np.arange(n_pin, dtype=np.int64))
                gpu.h2d(moved, label="memadvise-prefetch")

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Shrink the resident pool (evicting LRU pages) to free bytes.

        The pool never shrinks below the pinned pages plus one streaming
        page — the pager must keep one slot to make progress.
        """
        page = self._uvm.page_size
        floor_pages = self._uvm.pinned_pages + 1
        cur_pages = self._pool_alloc.nbytes // page
        give_pages = min(-(-need // page), cur_pages - floor_pages)
        if give_pages <= 0:
            return 0
        new_pages = cur_pages - give_pages
        self._uvm.shrink_capacity(new_pages * page)
        freed = self._pool_alloc.nbytes - new_pages * page
        gpu.memory.resize(self._pool_alloc, new_pages * page)
        return freed

    def _touched_pages(self, graph: CSRGraph, active: np.ndarray) -> np.ndarray:
        """Unique page ids the active vertices' edge ranges cover (vectorized)."""
        vs = np.nonzero(active)[0]
        if vs.size == 0 or self._uvm.n_pages == 0:
            return np.empty(0, dtype=np.int64)
        bpe = graph.bytes_per_edge
        lo = graph.indptr[vs] * bpe
        hi = graph.indptr[vs + 1] * bpe
        has = hi > lo
        lo, hi = lo[has], hi[has]
        if lo.size == 0:
            return np.empty(0, dtype=np.int64)
        from repro.core.static_region import range_mark

        p_lo = lo // self._uvm.page_size
        p_hi = (hi - 1) // self._uvm.page_size
        marks = range_mark(p_lo, p_hi + 1, self._uvm.n_pages)
        return np.nonzero(np.cumsum(marks[:-1]) > 0)[0]

    def _iteration(
        self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram, state: ProgramState
    ) -> None:
        pages = self._touched_pages(graph, state.active)
        if gpu.events.record:
            # Every touched page is accessed through the unified address
            # space; demand paging does the moving.
            emit_access_plan(gpu, self.name, "page",
                             RunPlan.from_ids(pages, AccessPath.DIRECT))
        access = self._uvm.touch(pages)
        prefetch_bytes = 0
        k = gpu.spec.uvm_prefetch_pages
        if k > 0 and access.n_faults and self._uvm.n_pages:
            # Sequential prefetch: pull the next k pages behind each
            # touched page (the driver's density heuristic, simplified).
            ahead = (pages[:, None] + np.arange(1, k + 1)[None, :]).ravel()
            ahead = ahead[ahead < self._uvm.n_pages]
            prefetch_bytes = self._uvm.prefetch(ahead)
        gpu.vertex_scan(graph.n_vertices, passes=1, label="gen-active")
        n_edges = state.active_edges(graph)
        spec = gpu.spec
        charged_bytes = gpu._scale(access.bytes_migrated + prefetch_bytes)
        fault_batches = -(-access.n_faults // spec.uvm_fault_batch) if access.n_faults else 0
        stall = (
            fault_batches * spec.uvm_fault_latency
            + charged_bytes / spec.uvm_migration_bandwidth
        )
        # Faults stall the SMs: kernel then migration serialize on the GPU
        # lane as two events, so the compute / fault-stall split survives in
        # the timeline.  The fault/migration/eviction counters were already
        # emitted by the pager's touch(); the stall event carries the PCIe
        # charge.
        done = gpu.clock.now
        if n_edges > 0:
            charged_edges = gpu._scale(n_edges)
            kernel = spec.uvm_kernel_penalty * sum(
                spec.kernel.edge_cost(charged_edges, program.atomics))
            with gpu.phase("Tcompute"):
                done = gpu.gpu.submit_kernel(
                    kernel, label="uvm-kernel",
                    counters={"kernel_launches": 1,
                              "edges_processed": charged_edges},
                    faults=gpu.faults,
                )
        if stall > 0 or fault_batches or charged_bytes:
            with gpu.phase("Tfault"):
                done = gpu.gpu.submit(
                    stall, label="uvm-fault-stall", kind="fault-stall",
                    counters={
                        "bytes_h2d": charged_bytes,
                        "h2d_transfers": fault_batches,
                        "fault_batches": fault_batches,
                    },
                )
        gpu.sync(done)

    def _report_extra(self, result: RunResult, gpu: SimulatedGPU, graph: CSRGraph) -> None:
        result.extra["page_size"] = float(self._uvm.page_size)
        result.extra["resident_pages"] = float(self._uvm.resident_pages)
        result.extra["pin_fraction"] = float(self.pin_fraction)
