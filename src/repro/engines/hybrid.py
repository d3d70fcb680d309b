"""Hybrid — per-chunk migrate / gather / direct transfer management.

HyTGraph (PAPERS.md) shows the win from *choosing per chunk* among explicit
migration, CPU-assisted gather, and zero-copy direct access; EMOGI shows
direct access beating migration outright for sparse, low-reuse traversals.
This engine is Ascetic plus migration and zero-copy
(:meth:`~repro.gpusim.device.SimulatedGPU.direct_access`).  It opens every
superstep with Ascetic's frame and hands its cache — a
:class:`~repro.core.static_region.StaticRegion` of migrated chunks — between
requests the same way (:class:`~repro.core.manager.RegionEngine`); a
:class:`~repro.core.replacement.HotnessTable` is the reuse signal.

Every iteration, :class:`HybridPolicy` scores each touched non-resident
chunk with the platform's own cost model:

* **MIGRATE** — the whole chunk flies once over bulk PCIe and becomes
  resident; the cost amortizes over the chunk's measured cross-iteration
  reuse (hot and dense wins here).  Bounded by cache capacity: overflowing
  candidates fall back to their runner-up path.
* **GATHER** — the CPU assembles only the needed bytes and ships them at
  bulk bandwidth; the fixed gather setup amortizes over the round's many
  chunks (medium-density footprints win here).
* **DIRECT** — sector-granular zero-copy loads move only the needed bytes
  with no DMA setup and no burst amplification, but at roughly half
  bandwidth (cold, sparse, one-touch chunks win here).

Chunks already in the cache are **RESIDENT** and compute in place.  The
policy's :class:`~repro.engines.base.RunPlan` drives the superstep's
movement, and a recording log gets it through the same
:func:`~repro.engines.base.emit_access_plan` as every engine's plan.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.manager import RegionEngine, shrink_region, superstep_frame
from repro.core.replacement import HotnessTable
from repro.core.static_region import DEFAULT_CHUNK_BYTES, StaticRegion
from repro.engines.base import AccessPath, RunPlan, RunResult, emit_access_plan
from repro.graph.csr import ChunkRuns, CSRGraph, grant_in_order
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.rounds import stream_rounds

__all__ = ["HybridEngine", "HybridPolicy"]

_PATH_CODES = np.array(
    [int(AccessPath.MIGRATE), int(AccessPath.GATHER), int(AccessPath.DIRECT)],
    dtype=np.int8,
)


class HybridPolicy:
    """Cost-model scores for migrate / gather / direct, per touched chunk.

    The cost model depends on a chunk only through its touch count, its
    hotness history and its residency, all constant along a piece of a
    chunk-map segment, so it is evaluated once per such run and weighted by
    the run's length — never once per (sub-edge, down-scaled) chunk.

    The per-iteration inputs the engine installs before ``plan``:

    ``bytes_per_touch``
        Expected needed (paper-scale) bytes per active vertex touching a
        chunk — the bytes-needed-vs-bytes-moved signal.
    ``migrate_budget``
        Chunks the device cache can absorb this iteration (free slots plus
        evictable cold residents); migration beyond it falls back.
    """

    def __init__(self, spec: GPUSpec, region: StaticRegion, chunk_bytes: int,
                 reuse_horizon: int = 8) -> None:
        self.spec = spec
        self.region = region
        #: Paper-scale bytes of one chunk (the unit a migration moves).
        self.chunk_bytes = float(chunk_bytes)
        self.reuse_horizon = int(reuse_horizon)
        self.bytes_per_touch = float(chunk_bytes)
        self.migrate_budget = 0

    def plan(self, runs: ChunkRuns, touch_counts: np.ndarray,
             hotness: HotnessTable) -> RunPlan:
        """Score pieces of ``runs`` that agree in (touch, history, residency).

        ``runs`` are pieces of chunk-map segments with one ``touch_counts``
        entry each; ``hotness`` is the engine's cumulative table.
        """
        pieces, origin, resident = self.region.split_by_residency(runs)
        starts, ends = pieces.starts, pieces.ends
        paths = np.empty(len(pieces), dtype=np.int8)
        paths[resident] = int(AccessPath.RESIDENT)
        need = np.nonzero(~resident)[0]
        if need.size:
            n_chunks = (ends - starts)[need]
            touches = np.asarray(touch_counts, dtype=np.float64)[origin[need]]
            needed = np.clip(touches * self.bytes_per_touch, 1.0, self.chunk_bytes)
            link = self.spec.pcie
            history = np.minimum(hotness.cumulative_at(starts[need]),
                                 self.reuse_horizon).astype(np.float64)
            reuse = 1.0 + history
            # Each score is built from the (fixed, variable) functions the
            # lanes charge with.  Fixed stage costs amortize over *this
            # iteration's* candidate set: one DMA launch serves every
            # migrated chunk and one request round-trip plus CPU wake-up
            # serves every gathered chunk, so a sparse iteration (few
            # candidates) carries a large per-chunk share — which is exactly
            # when zero-copy's setup-free loads win (EMOGI's sparse-frontier
            # result) — while a dense one amortizes it away.
            n_cand = float(n_chunks.sum())
            # Migrate: the whole chunk once over bulk PCIe (contiguous in
            # host memory, so no CPU gather), amortized over expected reuse.
            chunk_fixed, chunk_variable = link.copy_cost(self.chunk_bytes)
            cost_migrate = (chunk_fixed / n_cand + chunk_variable) / reuse
            # Gather: CPU assembly pipelines with the bulk copy, so the
            # score is the bottleneck stage plus the amortized round
            # overhead (the request round-trip and the gather kick-off).
            copy_fixed, copy_variable = link.copy_cost(needed)
            gather_fixed, gather_variable = self.spec.gather.gather_cost(needed)
            cost_gather = (np.maximum(gather_variable, copy_variable)
                           + (copy_fixed + gather_fixed) / n_cand)
            # Direct: sector-granular zero-copy loads of only the needed bytes.
            sectors = np.ceil(needed / link.sector)
            cost_direct = sum(link.direct_cost(sectors * link.sector, sectors))
            costs = np.stack([cost_migrate, cost_gather, cost_direct])
            chosen = _PATH_CODES[np.argmin(costs, axis=0)].copy()
            # Capacity-bounded migration: keep the candidates with the
            # largest savings over their runner-up path (ties: lowest chunk
            # id first); the rest take the runner-up.  Whole runs in that
            # order, at most one run split at the budget.
            mig = np.nonzero(chosen == int(AccessPath.MIGRATE))[0]
            budget = max(int(self.migrate_budget), 0)
            split = None
            if n_chunks[mig].sum() > budget:
                runner_up = np.where(costs[1, mig] <= costs[2, mig],
                                     _PATH_CODES[1], _PATH_CODES[2])
                saving = np.minimum(costs[1, mig], costs[2, mig]) - costs[0, mig]
                granted = grant_in_order(
                    n_chunks[mig], np.argsort(-saving, kind="stable"), budget)
                overflow = granted == 0
                chosen[mig[overflow]] = runner_up[overflow]
                partial = np.nonzero(~overflow & (granted < n_chunks[mig]))[0]
                if partial.size:
                    j = int(partial[0])
                    split = (int(need[mig[j]]), int(granted[j]), runner_up[j])
            paths[need] = chosen
            if split is not None:
                # The run straddling the budget: its lowest ids migrate,
                # the rest become a second run on the runner-up path.
                k, kept, fallback = split
                rows = np.insert(np.arange(len(pieces)), k, k)
                starts, ends = starts[rows], ends[rows]
                paths, origin = paths[rows], origin[rows]
                ends[k] = starts[k + 1] = starts[k] + kept
                paths[k + 1] = fallback
        return RunPlan(ChunkRuns(starts, ends), paths, origin)


class HybridEngine(RegionEngine):
    """Hotness-driven hybrid transfer management (HyTGraph/EMOGI direction).

    Parameters beyond the :class:`~repro.engines.base.Engine` basics:

    chunk_bytes:
        Paper-scale decision/migration granule (16 KB, like Ascetic's
        chunks — §3.4's burst-friendly size).
    cache_fraction:
        Share of post-vertex-state device memory given to the migrated-chunk
        cache; the rest is the gather staging buffer.
    reuse_horizon:
        Iterations of measured reuse the migration score may amortize over
        (caps the hotness history's influence).
    """

    name = "Hybrid"

    def __init__(self, spec=None, max_iterations=None, data_scale=1.0,
                 record_events=False, fault_plan=None, seed=0,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 cache_fraction: float = 0.75,
                 reuse_horizon: int = 8):
        super().__init__(spec, max_iterations, data_scale, record_events,
                         fault_plan, seed)
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if not 0.0 <= cache_fraction <= 0.95:
            raise ValueError("cache_fraction must be in [0, 0.95]")
        if reuse_horizon < 1:
            raise ValueError("reuse_horizon must be >= 1")
        self.chunk_bytes = int(chunk_bytes)
        self.cache_fraction = float(cache_fraction)
        self.reuse_horizon = int(reuse_horizon)

    # ------------------------------------------------------------ lifecycle
    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph,
                 program: VertexProgram) -> None:
        available = self._place_vertex_state(gpu, graph, "hybrid_cache")
        chunk_scaled = self.scaled_bytes(self.chunk_bytes)
        # A cold cache starts empty and fills from migration decisions —
        # the lazy analogue of Ascetic's prefilled Static Region.
        region = self._adopt_region(graph, chunk_scaled,
                                    int(available * self.cache_fraction), "lazy")
        cache_alloc_bytes = region.capacity_chunks * chunk_scaled
        self._cache_alloc = (
            self._alloc_retry(gpu, "hybrid_cache", cache_alloc_bytes)
            if cache_alloc_bytes > 0 else None
        )
        staging_bytes = available - cache_alloc_bytes
        self._staging_alloc = self._alloc_retry(
            gpu, "hybrid_staging", max(staging_bytes, 1))
        self._staging_floor = max(self._staging_alloc.nbytes // 8, 1)
        # Cumulative history: how many iterations each chunk has been
        # touched — the migration score's reuse estimate.
        self._hotness = HotnessTable(region.n_chunks, policy="cumulative",
                                     stale_threshold=self.reuse_horizon,
                                     chunk_map=region.chunk_map)
        self.transfer_policy = HybridPolicy(
            gpu.spec, region, self.chunk_bytes, self.reuse_horizon)
        gpu.h2d(self._vertex_state_bytes(graph), label="vertex-state")
        self._warm_bytes = region.resident_bytes if self._warm_hit else 0
        if self._warm_hit:
            gpu.events.marker(
                "warm-hit", "hybrid-cache", gpu.clock.now,
                extra=(("resident_chunks", float(region.resident_chunks)),
                       ("skipped_bytes", float(self._warm_bytes)),
                       ("invalidated_chunks", float(self._warm_invalidated))))
        self._migrated_chunks = 0
        self._path_bytes = {AccessPath.MIGRATE: 0, AccessPath.GATHER: 0,
                            AccessPath.DIRECT: 0}

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Shrink staging toward its floor, then evict cache chunks."""
        freed = 0
        give = min(self._staging_alloc.nbytes - self._staging_floor, need)
        if give > 0:
            gpu.memory.resize(self._staging_alloc,
                              self._staging_alloc.nbytes - give)
            freed += give
        if freed < need and self._cache_alloc is not None:
            freed += shrink_region(gpu, self._region, self._cache_alloc,
                                   self._cache_alloc.nbytes - (need - freed))
        if freed:
            gpu.events.marker("cache-shrink", "hybrid", gpu.clock.now,
                              extra=(("freed", float(freed)),))
        return freed

    # ------------------------------------------------------------ iteration
    def _iteration(self, gpu: SimulatedGPU, graph: CSRGraph,
                   program: VertexProgram, state: ProgramState) -> None:
        region = self._region
        policy: HybridPolicy = self.transfer_policy
        # Ascetic's frame, with the staging buffer as the on-demand region.
        # Touch counts are per chunk-map segment: the whole iteration
        # reasons about runs of chunks (segments, cut by residency), never
        # about the chunk axis itself.
        frame = superstep_frame(gpu, graph, state, region,
                                self._staging_alloc.nbytes)
        t_map, od_plan, seg_touch = frame.t_map, frame.plan, frame.seg_touch
        cmap = region.chunk_map
        touched = np.nonzero(seg_touch)[0]

        # Install this iteration's cost-model inputs, then decide.  The
        # needed-bytes-per-touch estimate is reconstructed in *paper*
        # geometry: down-scaled chunks are smaller than one vertex's edge
        # span, so raw per-chunk byte counts would read as 100 % dense and
        # hide exactly the sub-chunk sparsity zero-copy exploits.  At paper
        # scale a touched 16 KB chunk holds one frontier vertex's edges when
        # the frontier is sparse and ``density × chunk`` bytes when dense.
        n_od_active = od_plan.n_vertices
        if n_od_active:
            # Degree is scale-invariant, so scaled bytes over scaled count
            # is the paper-scale per-vertex edge footprint.
            vertex_bytes = od_plan.edge_bytes / n_od_active
            density = n_od_active / max(graph.n_vertices, 1)
            policy.bytes_per_touch = min(
                float(self.chunk_bytes),
                max(vertex_bytes, density * self.chunk_bytes),
            )
        else:
            policy.bytes_per_touch = 0.0
        # Evictable: resident chunks not touched last iteration.
        cold = cmap.segment_runs(self._hotness.seg_last == 0)
        policy.migrate_budget = int(
            region.free_chunks
            + region.resident_count_in_runs(cold.starts, cold.ends))
        # Split the on-demand traffic across paths by needed-bytes weight.
        w_m = w_g = w_d = 0.0
        mig_ids = np.empty(0, dtype=np.int64)
        if touched.size:
            touch = seg_touch[touched]
            plan = policy.plan(cmap.segments(touched), touch, self._hotness)
            if gpu.events.record:
                emit_access_plan(gpu, self.name, "chunk", plan)
            n_chunks = plan.runs.lengths
            needed = np.clip(touch[plan.origin] * policy.bytes_per_touch,
                             1.0, float(self.chunk_bytes))

            def weight(path: AccessPath) -> float:
                # Chunk-length on purpose: the weight is a float pairwise
                # sum over the path's chunks in id order, and that order of
                # additions is part of every digest downstream.
                on_path = plan.paths == int(path)
                return float(np.repeat(needed[on_path], n_chunks[on_path]).sum())

            w_m = weight(AccessPath.MIGRATE)
            w_g = weight(AccessPath.GATHER)
            w_d = weight(AccessPath.DIRECT)
            # Chunk-length on purpose: region.swap takes chunk ids.
            mig_ids = plan.runs[plan.paths == int(AccessPath.MIGRATE)].ids()
        w_total = w_m + w_g + w_d
        od_edges = od_plan.n_edges
        if w_total > 0:
            e_m = int(od_edges * (w_m / w_total))
            e_g = int(od_edges * (w_g / w_total))
            b_g = int(od_plan.edge_bytes * (w_g / w_total))
            b_d = int(od_plan.edge_bytes * (w_d / w_total))
            req_g = int(od_plan.request_bytes * (w_g / w_total))
        else:
            e_m = e_g = b_g = b_d = req_g = 0
        e_d = od_edges - e_m - e_g
        mig_bytes = int(mig_ids.size) * region.chunk_bytes

        # ➊ Resident compute overlaps every transfer chain.
        with gpu.phase("Tsr"):
            gpu.edge_kernel(frame.static_edges, label="static-compute",
                            atomics=program.atomics, after=t_map)
        # ➋ Migration: whole chunks, contiguous in pinned host memory —
        # one bulk copy, no CPU gather, then their compute.
        if mig_bytes:
            with gpu.phase("Tmigrate"):
                t_mig = gpu.h2d(mig_bytes, label="chunk-migrate", after=t_map)
            with gpu.phase("Tondemand"):
                gpu.edge_kernel(e_m, label="migrate-compute",
                                atomics=program.atomics, after=t_mig)
        # ➌ Gather chain: request list down, then pipelined
        # gather → transfer → compute rounds (Ascetic's schedule).
        if b_g > 0:
            prev = gpu.d2h(req_g, label="od-requests", after=t_map)
            stream_rounds(gpu, b_g, e_g, max(-(-b_g // frame.round_bytes), 1),
                          atomics=program.atomics, after=prev)
        # ➍ Direct chain: zero-copy loads feed the consuming kernel; both
        # start at t_map and overlap (the sync below takes the max).
        if b_d > 0 or e_d > 0:
            with gpu.phase("Tdirect"):
                gpu.direct_access(b_d, label="zero-copy", after=t_map)
            with gpu.phase("Tondemand"):
                gpu.edge_kernel(e_d, label="direct-compute",
                                atomics=program.atomics, after=t_map)
        # ➎ Cache update: migrated chunks become resident; overflowing the
        # free slots evicts the coldest already-consumed residents (free —
        # the cache is read-only).
        if mig_ids.size:
            n_evict = int(mig_ids.size) - region.free_chunks
            evict_ids = np.empty(0, dtype=np.int64)
            if n_evict > 0:
                # Most-consumed first, lowest chunk id first among equals:
                # whole resident pieces of the cold segments in that order,
                # the last one cut at the count.
                cold_seg = np.nonzero(self._hotness.seg_last == 0)[0]
                pieces, origin, resident = region.split_by_residency(
                    cmap.segments(cold_seg))
                pieces = pieces[resident]
                consumed = self._hotness.seg_cumulative[cold_seg[origin[resident]]]
                granted = grant_in_order(
                    pieces.lengths, np.argsort(-consumed, kind="stable"), n_evict)
                # Chunk-length on purpose: region.swap takes chunk ids.
                evict_ids = ChunkRuns(pieces.starts, pieces.starts + granted).ids()
            region.swap(evict_ids, mig_ids)
            self._migrated_chunks += int(mig_ids.size)
        self._hotness.update(seg_touch)
        up = gpu.charge_scale
        self._path_bytes[AccessPath.MIGRATE] += int(mig_bytes * up)
        self._path_bytes[AccessPath.GATHER] += int(b_g * up)
        self._path_bytes[AccessPath.DIRECT] += int(b_d * up)
        gpu.sync()

    # ------------------------------------------------------------- reporting
    def _report_extra(self, result: RunResult, gpu: SimulatedGPU,
                      graph: CSRGraph) -> None:
        result.extra["cache_chunks"] = float(self._region.capacity_chunks)
        result.extra["resident_chunks"] = float(self._region.resident_chunks)
        result.extra["migrated_chunks"] = float(self._migrated_chunks)
        result.extra["migrate_bytes"] = float(self._path_bytes[AccessPath.MIGRATE])
        result.extra["gather_bytes"] = float(self._path_bytes[AccessPath.GATHER])
        result.extra["direct_bytes"] = float(self._path_bytes[AccessPath.DIRECT])
        self._report_warm(result)
