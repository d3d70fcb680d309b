"""PT — the partition-based baseline (GraphReduce-style, §2.1).

The graph's edge array is split into partitions sized to the GPU memory left
after vertex state.  Every iteration, each partition containing at least one
active vertex is shipped whole to the device and processed; the next
iteration ships it again (nothing persists — Fig. 1's "Partition" row).
Transfers and kernels are sequential on purpose: this baseline is the
swap-everything scheme the paper normalizes Tables 4 and 5 to, and its
defining property is that moved bytes ≫ useful bytes (Table 5 shows
10–218× the dataset size).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.engines.base import (AccessPath, Engine, RunPlan, RunResult,
                                emit_access_plan)
from repro.graph.csr import CSRGraph
from repro.graph.partition import EdgePartition, partition_by_bytes, partitions_of_vertices
from repro.gpusim.device import SimulatedGPU

__all__ = ["PartitionEngine"]


class PartitionEngine(Engine):
    """PT, with an optional GraphReduce-style double buffer.

    ``double_buffer=False`` (the default, and the baseline the paper
    normalizes to) swaps one partition at a time: the kernel waits for the
    transfer, the next transfer waits for the kernel.  ``double_buffer=True``
    halves the partition size and pipelines: partition *i+1* streams in
    while partition *i* computes — the classic optimization GraphReduce
    applies, exposed here for the ablation bench.
    """

    name = "PT"

    def __init__(self, spec=None, max_iterations=None, data_scale=1.0,
                 record_events=False, fault_plan=None, seed=0,
                 double_buffer: bool = False, pinned_partitions: int = 0):
        super().__init__(spec, max_iterations, data_scale, record_events,
                         fault_plan, seed)
        if pinned_partitions < 0:
            raise ValueError("pinned_partitions must be non-negative")
        self.double_buffer = double_buffer
        #: Fig. 1's "Partition + Reuse" row: keep the first k partitions
        #: resident across iterations (§1 measures the idea at 1306 GB →
        #: 966 GB on PR/FK before generalizing it into the Static Region).
        self.pinned_partitions = pinned_partitions

    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram) -> None:
        from repro.gpusim.memory import GPUOutOfMemory

        self._alloc_retry(gpu, "vertex_state", self._vertex_state_bytes(graph))
        budget = gpu.memory.available
        if budget <= 0:
            raise GPUOutOfMemory(
                "no device memory left for a partition buffer",
                name="partition_buffer", requested=1, available=budget,
                capacity=gpu.memory.capacity, live=gpu.memory.live_allocations(),
            )
        # Pinned partitions carve their share off the streaming budget.
        n_slots = (2 if self.double_buffer else 1) + self.pinned_partitions
        part_budget = budget // n_slots
        if part_budget <= 0:
            raise GPUOutOfMemory(
                "device memory too small for the buffer layout",
                name="partition_buffer", requested=n_slots, available=budget,
                capacity=gpu.memory.capacity, live=gpu.memory.live_allocations(),
            )
        self._parts: List[EdgePartition] = partition_by_bytes(graph, part_budget)
        self._n_pinned = min(self.pinned_partitions, len(self._parts))
        buf = min(part_budget, max(p.nbytes for p in self._parts))
        self._part_allocs = [self._alloc_retry(gpu, "partition_buffer", buf)]
        if self.double_buffer:
            self._part_allocs.append(
                self._alloc_retry(gpu, "partition_buffer_2", buf))
        self._part_floor = max(buf // 8, 1)
        # Vertex state (values + offsets + bitmaps) is shipped once, then
        # the pinned partitions (their transfer counts, like any prestore).
        gpu.h2d(self._vertex_state_bytes(graph), label="vertex-state")
        pinned_bytes = sum(p.nbytes for p in self._parts[: self._n_pinned])
        if pinned_bytes:
            gpu.memory.alloc("pinned_partitions", pinned_bytes)
            gpu.h2d(pinned_bytes, label="pinned-partitions")

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Re-partition with smaller streaming buffers to free bytes.

        With pinned partitions the layout is fixed (their allocation is
        sized to the current partitioning), so nothing is safely
        releasable — the squeeze clamp absorbs the difference.
        """
        if self._n_pinned > 0:
            return 0
        n_bufs = len(self._part_allocs)
        cur = self._part_allocs[0].nbytes
        target = max(cur - (-(-need // n_bufs)), self._part_floor)
        if target >= cur:
            return 0
        parts = partition_by_bytes(graph, target)
        buf = min(target, max(p.nbytes for p in parts))
        freed = 0
        for a in self._part_allocs:
            freed += a.nbytes - buf
            gpu.memory.resize(a, buf)
        self._parts = parts
        gpu.events.marker("repartition", "pt-squeeze", gpu.clock.now,
                          extra=(("freed", float(freed)),
                                 ("n_partitions", float(len(parts)))))
        return freed

    def _iteration(
        self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram, state: ProgramState
    ) -> None:
        touched = partitions_of_vertices(graph, self._parts, state.active)
        if not touched.any():
            return
        # Pinned partitions stay resident; every other touched partition
        # bulk-migrates whole (and is thrown away again — Fig. 1's
        # "Partition" row).
        pids = np.nonzero(touched)[0]
        pinned = pids < self._n_pinned
        if gpu.events.record:
            paths = np.where(pinned, AccessPath.RESIDENT, AccessPath.MIGRATE)
            emit_access_plan(gpu, self.name, "partition",
                             RunPlan.from_ids(pids, paths))
        gpu.vertex_scan(graph.n_vertices, passes=1, label="gen-active")
        # kernel_ends[-2] gates the transfer into a reused buffer: with one
        # buffer the previous kernel, with two the one before it.
        lag = 2 if self.double_buffer else 1
        kernel_ends: List[float] = []
        for pid, resident in zip(pids, pinned):
            part = self._parts[pid]
            if resident:
                # Resident across iterations (Fig. 1 "Partition + Reuse"):
                # compute straight away, nothing to transfer.  Does not
                # gate the streaming buffers (kernel_ends tracks only
                # partitions that occupy them).
                with gpu.phase("Tcompute"):
                    gpu.edge_kernel(part.n_edges, label=f"compute{pid}",
                                    atomics=program.atomics)
                continue
            gate = kernel_ends[-lag] if len(kernel_ends) >= lag else 0.0
            with gpu.phase("Ttransfer"):
                t_x = gpu.h2d(part.nbytes, label=f"part{pid}", after=gate)
            # Partition-granular processing is *redundant* by construction:
            # the kernel sweeps the whole partition, active or not (§2.1).
            with gpu.phase("Tcompute"):
                t_k = gpu.edge_kernel(
                    part.n_edges,
                    label=f"compute{pid}",
                    atomics=program.atomics,
                    after=t_x,
                )
            kernel_ends.append(t_k)
        gpu.sync()

    def _report_extra(self, result: RunResult, gpu: SimulatedGPU, graph: CSRGraph) -> None:
        result.extra["n_partitions"] = float(len(self._parts))
