"""What a load test is made of: its config, its workload catalog, and the
single-server entry point.

:class:`ServeConfig` is the workload / queue / scheduler / pool half of
every load test's input, :class:`WorkloadCatalog` hands out the shared
graph objects warm reuse depends on, and :func:`run_load_test` runs a
config on one device.  There is one discrete-event loop and it lives in
:mod:`repro.serve.fleet`; a single server is a fleet of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec
from repro.gpusim.fabric import FabricSpec
from repro.harness.experiments import (
    BENCH_SCALE,
    PR_TOL,
    SSSP_WEIGHT_HIGH,
    _cached_dataset,
)
from repro.algorithms import make_program
from repro.serve.batching import make_batched
from repro.serve.request import Request

__all__ = ["ServeConfig", "WorkloadCatalog", "run_load_test", "quick_config"]


@dataclass(frozen=True)
class ServeConfig:
    """The workload / queue / scheduler / pool half of a load test's input
    (:class:`~repro.serve.fleet.FleetConfig` adds the devices)."""

    seed: int = 0
    n_requests: int = 24
    #: Offered load, requests per simulated second (open loop).
    arrival_rate: float = 1.0
    graphs: Tuple[str, ...] = ("GS",)
    algorithms: Tuple[str, ...] = ("BFS", "CC")
    tenants: Tuple[str, ...] = ("t0", "t1")
    priorities: Tuple[int, ...] = (0,)
    #: Per-request deadline budget in seconds after arrival (None = none).
    deadline: Optional[float] = None
    #: Explicit sources per batchable request (>1 enables multi-source).
    multi_source: int = 1
    engine: str = "Ascetic"
    scale: float = BENCH_SCALE
    queue_capacity: int = 16
    queue_policy: str = "reject"
    scheduler: str = "affinity"
    max_batch: int = 1
    #: Max seconds the dispatcher holds the free server for a fuller batch.
    batch_wait: float = 0.0
    max_engines: int = 2
    aging_seconds: float = 60.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


class WorkloadCatalog:
    """Graph variants and device specs, built once and shared by identity.

    Warm-region validity is checked by *object identity*
    (:meth:`~repro.core.static_region.StaticRegion.compatible_with`), so
    the catalog must hand back the very same graph object for every
    request with the same affinity key — rebuilding, say, the weighted
    view per request would silently defeat all cross-request reuse.
    """

    def __init__(self, scale: float = BENCH_SCALE) -> None:
        self.scale = scale
        self._graphs: Dict[Tuple[str, str], Any] = {}

    def dataset(self, graph_id: str):
        return _cached_dataset(graph_id, self.scale)

    def graph(self, graph_id: str, variant: str):
        """The shared graph object for one affinity key."""
        key = (graph_id, variant)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self.dataset(graph_id).graph
            if variant == "weighted":
                graph = graph.with_random_weights(high=SSSP_WEIGHT_HIGH)
            elif variant == "sym":
                graph = graph.symmetrized()
            elif variant == "rev":
                graph = graph.reverse()
            elif variant != "plain":
                raise ValueError(f"unknown graph variant {variant!r}")
            self._graphs[key] = graph
        return graph

    def spec(self, graph_id: str) -> GPUSpec:
        return GPUSpec(memory_bytes=self.dataset(graph_id).gpu_memory_bytes)

    def data_scale(self, graph_id: str) -> float:
        return self.dataset(graph_id).scale

    def resolve_sources(self, request: Request, graph) -> Tuple[int, ...]:
        """Fold a request's raw source ids into the graph's vertex range."""
        if request.sources is None:
            return (best_source(graph),)
        return tuple(int(s) % graph.n_vertices for s in request.sources)

    def program_for(self, batch: Tuple[Request, ...], graph):
        """Build the (possibly fused) program one dispatch runs."""
        lead = batch[0]
        algo = lead.algorithm
        all_sources: List[int] = []
        for r in batch:
            all_sources.extend(self.resolve_sources(r, graph))
        if len(batch) > 1 or len(all_sources) > 1:
            return make_batched(algo, all_sources)
        if algo in ("BFS", "SSSP", "SSWP"):
            return make_program(algo, source=all_sources[0])
        if algo in ("PR", "PR-PULL"):
            return make_program(algo, tol=PR_TOL)
        return make_program(algo)


def run_load_test(config: ServeConfig,
                  requests: Optional[Tuple[Request, ...]] = None):
    """Run one seeded single-server load test: a fleet of one device.

    Pure function of ``(config, requests)``; returns the
    :class:`~repro.serve.fleet.FleetResult` of the one discrete-event loop
    (:func:`~repro.serve.fleet.run_fleet_test`) over a one-device fabric,
    never sharding, with no fault plan.  ``requests`` overrides the
    generated trace (tests build hand-crafted traces; the CLI always
    generates from the config's seed).
    """
    # Imported here because fleet.py builds on this module's ServeConfig
    # and WorkloadCatalog.
    from repro.serve.fleet import FleetConfig, run_fleet_test

    return run_fleet_test(
        FleetConfig(serve=config, fabric=FabricSpec(n_devices=1)), requests)


def quick_config(seed: int = 0) -> ServeConfig:
    """The tiny seeded load test behind ``repro serve --quick`` and CI.

    Two affinity keys on one small dataset — BFS/CC share the plain CSR,
    SSSP owns the weighted view — so the affinity scheduler, the engine
    pool, batching, deadlines, and shedding all get exercised in a run
    that stays under a minute of wall clock.
    """
    return ServeConfig(
        seed=seed,
        n_requests=12,
        arrival_rate=0.4,
        graphs=("GS",),
        algorithms=("BFS", "CC", "SSSP"),
        tenants=("acme", "beta"),
        priorities=(0, 1),
        deadline=45.0,
        multi_source=2,
        engine="Ascetic",
        scale=5e-5,
        queue_capacity=8,
        queue_policy="deadline",
        scheduler="affinity",
        max_batch=2,
        batch_wait=0.25,
        max_engines=2,
        aging_seconds=10.0,
    )
