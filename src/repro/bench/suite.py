"""The standard benchmark suite behind ``repro bench``.

Micro benchmarks cover the host hot paths every simulated iteration pays:
frontier expansion and edge counting (the per-iteration mask walk), the
Static Region's chunk accounting (touch counts, promotion, the
StaticBitmap), the UVM pager, one program superstep, and the event-log
fold.  Macro benchmarks time whole engine runs and a small grid, catching
regressions the micro kernels miss (allocation churn, per-iteration
overheads, scheduling).

Sizes are fixed per mode (``quick`` vs full) and every input is seeded, so
two runs of the same revision time identical work — the comparator's whole
premise.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.frontier import (
    FrontierCache,
    active_edge_count,
    expand_frontier,
)
from repro.bench.registry import Prepared, register
from repro.core.static_region import DEFAULT_CHUNK_BYTES, StaticRegion
from repro.graph.generators import rmat_graph, web_graph

__all__ = []  # registration happens at import; nothing to re-export

#: Engine-macro dataset scale: full mode matches the harness default
#: (``BENCH_SCALE``); quick mode shrinks a further 4x for CI smoke runs.
_MACRO_SCALE = {False: 2.0e-4, True: 5.0e-5}


def _frontier_inputs(quick: bool):
    scale, n_edges = (14, 150_000) if quick else (17, 1_200_000)
    graph = rmat_graph(scale, n_edges, seed=3)
    rng = np.random.default_rng(11)
    mask = rng.random(graph.n_vertices) < 0.3
    return graph, mask


def _region_inputs(quick: bool, fill: str = "front"):
    n_v, n_e = (8_000, 100_000) if quick else (60_000, 900_000)
    graph = web_graph(n_v, n_e, seed=5)
    region = StaticRegion(graph, capacity_bytes=graph.edge_array_bytes // 2,
                          fill=fill, chunk_bytes=4096)
    rng = np.random.default_rng(13)
    mask = rng.random(graph.n_vertices) < 0.4
    return graph, region, mask


@register("frontier/expand_frontier", kind="micro",
          description="materialize (source, position) pairs for a 30% frontier")
def _bench_expand(quick: bool) -> Prepared:
    graph, mask = _frontier_inputs(quick)
    n_edges = active_edge_count(graph, mask)
    return Prepared(fn=lambda: expand_frontier(graph, mask),
                    units={"edges": float(n_edges)})


@register("frontier/active_edge_count", kind="micro",
          description="count a 30% frontier's edges (uncached walk)")
def _bench_edge_count(quick: bool) -> Prepared:
    graph, mask = _frontier_inputs(quick)
    n_edges = active_edge_count(graph, mask)
    return Prepared(fn=lambda: active_edge_count(graph, mask),
                    units={"edges": float(n_edges)})


@register("frontier/shared_iteration", kind="micro",
          description="one iteration's frontier work through the shared cache"
                      " (count + vertices + expansion, one mask walk)")
def _bench_shared(quick: bool) -> Prepared:
    graph, mask = _frontier_inputs(quick)
    n_edges = active_edge_count(graph, mask)
    cache = FrontierCache()

    def run():
        # What an engine + vertex program pay per iteration post-refactor:
        # the engine's accounting count, then the program's expansion, all
        # served by one walk.  A fresh mask object per call forces the
        # cache to invalidate exactly as a real iteration does.
        m = mask.copy()
        cache.edge_count(graph, m)
        cache.vertices(graph, m)
        return cache.expansion(graph, m)

    return Prepared(fn=run, units={"edges": float(n_edges)})


@register("static_region/chunk_touch_counts", kind="micro",
          description="per-chunk touch counts from a 40% active mask"
                      " (4 KB chunks: the dense view of the segment counts)")
def _bench_touch_counts(quick: bool) -> Prepared:
    graph, region, mask = _region_inputs(quick)
    n_edges = active_edge_count(graph, mask)
    return Prepared(fn=lambda: region.chunk_touch_counts(mask),
                    units={"edges": float(n_edges),
                           "chunks": float(region.n_chunks)})


@register("static_region/promote_vertices", kind="micro",
          description="lazy-fill promotion of a 40% mask into an empty region")
def _bench_promote(quick: bool) -> Prepared:
    graph, region, mask = _region_inputs(quick, fill="lazy")
    n_edges = active_edge_count(graph, mask)

    def run():
        # Promotion mutates residency; reset so every repeat does the same
        # work.  The reset is a cheap vectorized fill, charged to the
        # benchmark uniformly across revisions.
        region.resident[:] = False
        region._invalidate()
        return region.promote_vertices(mask)

    return Prepared(fn=run, units={"edges": float(n_edges),
                                   "chunks": float(region.capacity_chunks)})


@register("static_region/vertex_static_bitmap", kind="micro",
          description="recompute the vertex-granularity StaticBitmap")
def _bench_bitmap(quick: bool) -> Prepared:
    graph, region, _ = _region_inputs(quick)

    def run():
        region._invalidate()  # as swap()/shrink_to() do
        return region.vertex_static_bitmap()

    return Prepared(fn=run, units={"vertices": float(graph.n_vertices)})


def _scaled_chunk_inputs(quick: bool, fill: str):
    """GS at the macro scale with the chunk size engines actually run:
    16 KB scaled down (3 B at the bench default 2e-4, 1 B in quick mode) —
    chunks smaller than one edge, the regime every scaled cell is in."""
    from repro.core.replacement import HotnessTable
    from repro.harness.experiments import make_workload

    scale = _MACRO_SCALE[quick]
    graph = make_workload("GS", "BFS", scale=scale).graph
    region = StaticRegion(graph, capacity_bytes=graph.edge_array_bytes // 2,
                          fill=fill,
                          chunk_bytes=max(int(DEFAULT_CHUNK_BYTES * scale), 1))
    rng = np.random.default_rng(29)
    hotness = HotnessTable(region.n_chunks, policy="cumulative",
                           stale_threshold=1,
                           seg_bounds=region.chunk_map.seg_bounds)
    for _ in range(4):
        hotness.update(region.segment_touch_counts(
            rng.random(graph.n_vertices) < 0.3))
    return graph, region, hotness, rng.random(graph.n_vertices) < 0.3


@register("replacement/plan_swaps", kind="micro",
          description="§3.4 fragment swap plan over a half-resident region at"
                      " the engines' scaled (sub-edge) chunk size")
def _bench_plan_swaps(quick: bool) -> Prepared:
    _, region, hotness, _ = _scaled_chunk_inputs(quick, fill="front")
    counts = region.fragment_resident_counts(64)
    run = lambda: hotness.plan_swaps(region.resident, region.n_chunks, 64,
                                     resident_counts=counts)
    if not run().n_swaps:
        raise RuntimeError("plan_swaps benchmark planned nothing")
    return Prepared(fn=run, units={"chunks": float(region.n_chunks)})


@register("hybrid/policy_plan", kind="micro",
          description="HybridPolicy.plan for a 30% frontier at the engines'"
                      " scaled (sub-edge) chunk size, budget-bound")
def _bench_policy_plan(quick: bool) -> Prepared:
    from repro.engines.hybrid import HybridPolicy
    from repro.gpusim.device import GPUSpec

    graph, region, hotness, mask = _scaled_chunk_inputs(quick, fill="random")
    policy = HybridPolicy(GPUSpec(memory_bytes=graph.dataset_bytes), region,
                          chunk_bytes=DEFAULT_CHUNK_BYTES)
    policy.bytes_per_touch = 8192.0
    seg_touch = region.segment_touch_counts(mask)
    touched = np.nonzero(seg_touch)[0]
    runs, touch = region.chunk_map.segments(touched), seg_touch[touched]
    policy.migrate_budget = runs.n_chunks // 8
    return Prepared(fn=lambda: policy.plan(0, runs, touch, hotness),
                    units={"chunks": float(runs.n_chunks)})


@register("uvm/touch", kind="micro",
          description="UVMMemory.touch of a sorted 48% page set, all resident,"
                      " at the engines' scaled page geometry (FK: 13 B pages)")
def _bench_uvm_touch(quick: bool) -> Prepared:
    from repro.gpusim.uvm import UVMMemory

    # FK at the macro scale as UVMEngine sizes it: 64 KB pages scaled down,
    # the pool at paper-ratio memory, a quarter of it pinned.
    n_pages, capacity, page = (39_846, 32_152, 3) if quick else (159_385, 128_609, 13)
    pager = UVMMemory(n_pages * page, capacity * page, page_size=page)
    pager.advise_pin(np.arange(capacity // 4, dtype=np.int64))
    rng = np.random.default_rng(31)
    pages = np.nonzero(rng.random(n_pages) < 0.48)[0]
    pager.touch(pages)  # fault the set in: every timed call is the hit path
    return Prepared(fn=lambda: pager.touch(pages),
                    units={"pages": float(pages.size)})


@register("algorithms/cc_step", kind="micro",
          description="one full-frontier CC superstep on scaled FK (expansion,"
                      " atomic-min scatter, next-frontier marking)")
def _bench_cc_step(quick: bool) -> Prepared:
    from repro.algorithms import make_program
    from repro.harness.experiments import make_workload

    graph = make_workload("FK", "CC", scale=_MACRO_SCALE[quick]).graph
    program = make_program("CC")

    def run():
        state = program.init_state(graph)
        program.step(graph, state)
        return state

    return Prepared(fn=run, units={"edges": float(graph.n_edges)})


@register("events/fold_metrics", kind="micro",
          description="refold a recorded engine run's event log into Metrics")
def _bench_fold(quick: bool) -> Prepared:
    from repro.gpusim.events import fold_metrics
    from repro.harness.experiments import make_workload, run_workload

    w = make_workload("GS", "BFS", scale=_MACRO_SCALE[quick])
    res = run_workload(w, "Ascetic", record_events=True)
    events = res.event_log.events
    return Prepared(fn=lambda: fold_metrics(events),
                    units={"events": float(len(events))})


def _engine_macro(engine: str, quick: bool) -> Prepared:
    from repro.harness.experiments import make_workload, run_workload

    w = make_workload("GS", "BFS", scale=_MACRO_SCALE[quick])
    run_workload(w, engine)  # warm the dataset/program caches outside timing

    def run():
        return run_workload(w, engine)

    return Prepared(fn=run, units={"edges": float(w.graph.n_edges)})


@register("engine/ascetic_bfs", kind="macro",
          description="full Ascetic BFS run on scaled GS (simulator overhead)")
def _bench_ascetic(quick: bool) -> Prepared:
    return _engine_macro("Ascetic", quick)


@register("engine/subway_bfs", kind="macro",
          description="full Subway BFS run on scaled GS (simulator overhead)")
def _bench_subway(quick: bool) -> Prepared:
    return _engine_macro("Subway", quick)


@register("engine/hybrid_bfs", kind="macro",
          description="full Hybrid BFS run on scaled GS (simulator overhead)")
def _bench_hybrid(quick: bool) -> Prepared:
    return _engine_macro("Hybrid", quick)


@register("engine/sharded_bfs", kind="macro",
          description="full 4-device sharded Ascetic BFS run on scaled GS "
                      "(fabric + exchange overhead)")
def _bench_sharded(quick: bool) -> Prepared:
    return _engine_macro("Sharded", quick)


@register("fleet/router_decide", kind="micro",
          description="router placement decisions over a fleet of warm "
                      "pools (affinity scan + least-loaded tie-break)")
def _bench_router(quick: bool) -> Prepared:
    from repro.gpusim.fabric import FabricSpec
    from repro.serve.fleet import Router
    from repro.serve.pool import EnginePool

    n_devices = 8
    n_keys = 200 if quick else 1_000
    router = Router(FabricSpec(n_devices=n_devices), shard_over=1.0)
    rng = np.random.default_rng(23)
    # Warm pools with a spread of affinity keys; a deterministic key
    # stream mixes warm hits, cold placements, and oversized graphs.
    pools = [EnginePool(max_engines=4) for _ in range(n_devices)]
    for d in range(n_devices):
        for k in range(d % 3 + 1):
            pools[d]._engines[(f"G{(d * 3 + k) % 12}", "plain")] = object()
    keys = [(f"G{rng.integers(0, 16)}", "plain") for _ in range(n_keys)]
    sizes = rng.integers(1_000, 3_000, size=n_keys)
    free = list(range(n_devices))

    def run():
        return [
            router.decide(key, int(size), 2_000, free, pools)
            for key, size in zip(keys, sizes)
        ]

    return Prepared(fn=run, units={"decisions": float(n_keys)})


@register("serve/scheduler_decide", kind="micro",
          description="one affinity-scheduler dispatch decision over a "
                      "deep admission queue")
def _bench_scheduler(quick: bool) -> Prepared:
    from repro.serve.request import generate_requests
    from repro.serve.scheduler import AffinityScheduler

    n = 300 if quick else 1_500
    items = generate_requests(
        n_requests=n, seed=17, arrival_rate=50.0,
        graphs=("GS", "FK", "UK"), algorithms=("BFS", "CC", "SSSP"),
        tenants=("a", "b", "c"), priorities=(0, 1, 2), multi_source=2,
    )
    sched = AffinityScheduler(max_batch=4, aging_seconds=1e9)
    warm = (("GS", "plain"), ("FK", "weighted"))
    now = items[-1].arrival
    return Prepared(fn=lambda: sched.select(items, now, warm),
                    units={"requests": float(n)})


@register("serve/slo_fold", kind="micro",
          description="fold a recorded request-lifecycle event stream into "
                      "the SLO report")
def _bench_slo_fold(quick: bool) -> Prepared:
    from repro.gpusim.events import EventLog
    from repro.serve.slo import fold_slo

    n = 2_000 if quick else 10_000
    log = EventLog(record=True)
    for i in range(n):
        t = i * 0.25
        rid = (("request", float(i)), ("deadline", t + 30.0))
        tenant = f"t{i % 4}/GS/BFS"
        log.marker("request-arrive", tenant, t, extra=rid)
        log.marker("request-admit", tenant, t, extra=rid)
        log.marker("request-start", tenant, t + 1.0,
                   extra=rid + (("batch", 1.0), ("warm", 1.0)))
        log.marker("request-complete", tenant, t + 3.0, extra=rid)
    # Materialized once: the bench times the fold, not the row view.
    events = list(log.events)
    return Prepared(fn=lambda: fold_slo(events),
                    units={"events": float(len(events))})


@register("runner/grid_serial", kind="macro",
          description="4-cell uncached grid through the runner (jobs=1)")
def _bench_grid(quick: bool) -> Prepared:
    from repro.runner import RunSpec, run_grid

    scale = _MACRO_SCALE[quick]
    specs = [
        RunSpec(dataset="GS", algorithm=algo, engine=eng, scale=scale)
        for algo in ("BFS", "CC")
        for eng in ("Ascetic", "Subway")
    ]

    def run():
        report = run_grid(specs, jobs=1, cache=None)
        if report.n_failed:
            raise RuntimeError("grid benchmark cell failed")
        return report

    run()  # warm dataset caches outside timing
    return Prepared(fn=run, units={"cells": float(len(specs))})
