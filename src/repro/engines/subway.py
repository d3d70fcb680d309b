"""Subway — the state-of-the-art baseline (Sabet et al., EuroSys '20; §2.2).

Per iteration, three strictly sequential steps (the paper's Fig. 5 top row):

(a) the GPU generates the sub-graph structure for the current frontier
    (GenDataMap) and sends the request list to the CPU;
(b) CPU threads gather exactly the active edges into a pinned staging
    buffer, which is then copied over PCIe;
(c) the GPU processes the gathered subgraph.

Because the steps serialize, the GPU idles through (b) — the §2.2
measurement this engine reproduces ("68 % of GPU time is idle in BFS on
Friendster").  Data volume is minimal (only active edges move — Table 5's
~1–4×), but nothing is reused across iterations and most of GPU memory sits
empty (Table 2).

A frontier whose gathered subgraph exceeds the staging region is processed
in rounds, each a full gather → transfer → compute sequence.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.ondemand import OFFSET_BYTES_PER_VERTEX
from repro.engines.base import (AccessPath, Engine, RunPlan, RunResult,
                                emit_access_plan)
from repro.graph.csr import CSRGraph
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.rounds import stream_rounds

__all__ = ["SubwayEngine"]


class SubwayEngine(Engine):
    """Subway, with an optional pipelined mode.

    ``pipelined=False`` is the paper's baseline: strictly sequential
    GenDataMap → Gather → Transfer → Compute (the top row of Fig. 5).
    ``pipelined=True`` lets a multi-round iteration overlap round *r+1*'s
    gather with round *r*'s transfer/compute — it quantifies how much of
    Ascetic's win is mere pipelining versus the Static Region (spoiler,
    reproduced in ``bench_engine_variants``: pipelining alone recovers only
    part of the gap, because single-round iterations have nothing to
    pipeline while Ascetic still overlaps against static compute).
    """

    name = "Subway"

    def __init__(self, spec=None, max_iterations=None, data_scale=1.0,
                 record_events=False, fault_plan=None, seed=0,
                 pipelined: bool = False):
        super().__init__(spec, max_iterations, data_scale, record_events,
                         fault_plan, seed)
        self.pipelined = pipelined

    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram) -> None:
        budget = self._place_vertex_state(gpu, graph, "subgraph_buffer")
        if self.pipelined:
            # Two staging halves so one can fill while the other computes.
            allocs = [
                self._alloc_retry(gpu, "subgraph_buffer_a", budget // 2),
                self._alloc_retry(gpu, "subgraph_buffer_b", budget - budget // 2),
            ]
        else:
            allocs = [self._alloc_retry(gpu, "subgraph_buffer", budget)]
        # Degradation floors: a squeeze may shrink the staging buffers, but
        # never below 1/8 of their original size (rounds just multiply).
        self._staging_allocs = [(a, max(a.nbytes // 8, 1)) for a in allocs]
        self._staging_bytes = max(min(a.nbytes for a in allocs), 1)
        gpu.h2d(self._vertex_state_bytes(graph), label="vertex-state")
        self._sum_iteration_bytes = 0
        self._n_iterations = 0

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Shrink the staging buffer(s) toward their floors to free bytes."""
        freed = 0
        for alloc, floor in self._staging_allocs:
            if freed >= need:
                break
            give = min(alloc.nbytes - floor, need - freed)
            if give > 0:
                gpu.memory.resize(alloc, alloc.nbytes - give)
                freed += give
        if freed:
            self._staging_bytes = max(
                min(a.nbytes for a, _ in self._staging_allocs), 1)
            gpu.events.marker("staging-shrink", "subway", gpu.clock.now,
                              extra=(("freed", float(freed)),
                                     ("staging_bytes", float(self._staging_bytes))))
        return freed

    def _iteration(
        self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram, state: ProgramState
    ) -> None:
        n_edges = state.active_edges(graph)
        edge_bytes = n_edges * graph.bytes_per_edge
        offset_bytes = state.n_active * OFFSET_BYTES_PER_VERTEX
        total_bytes = edge_bytes + offset_bytes
        self._sum_iteration_bytes += total_bytes
        self._n_iterations += 1

        # (a) GenDataMap on the GPU + request list down to the host.
        with gpu.phase("Tmap"):
            done = gpu.vertex_scan(graph.n_vertices, passes=2,
                                   label="gen-datamap")
        gpu.sync(done)
        gpu.sync(gpu.d2h(offset_bytes, label="requests"))

        # With two staging halves, pipelined mode lets round r+1 gather
        # while round r flies/computes.
        rounds = max(-(-total_bytes // self._staging_bytes), 1)
        if self.pipelined and rounds == 1 and total_bytes > 0:
            rounds = 2  # split to expose pipelining within the iteration
        if gpu.events.record:
            # One run: every round is CPU-gathered, nothing is resident.
            plan = RunPlan.from_ids(np.arange(rounds), AccessPath.GATHER)
            emit_access_plan(gpu, self.name, "round", plan)
        # (b) host gather, then PCIe copy — the GPU idles throughout unless
        # pipelined; (c) compute on the gathered subgraph.
        stream_rounds(gpu, total_bytes, n_edges, rounds,
                      atomics=program.atomics, sequential=not self.pipelined,
                      labels=("gather", "subgraph", "compute"),
                      compute_phase="Tcompute")
        gpu.sync()

    def _report_extra(self, result: RunResult, gpu: SimulatedGPU, graph: CSRGraph) -> None:
        # Paper-scale bytes, like every reported byte quantity.
        up = 1.0 / self.data_scale
        if self._n_iterations:
            result.extra["avg_iteration_bytes"] = (
                self._sum_iteration_bytes / self._n_iterations * up
            )
        result.extra["staging_bytes"] = self._staging_bytes * up
