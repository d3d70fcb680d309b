"""Deterministic multi-tenant serving on top of the simulated engines.

Ascetic's contribution is cross-*iteration* data reuse: a warm Static
Region amortizes PCIe transfers across a run's supersteps (§3.2–3.3).
This package lifts the same idea one level up, to cross-*request* reuse:
consecutive requests against the same graph reuse a pooled engine's warm
Static Region instead of re-filling it, and a graph-affinity scheduler
orders dispatches to make that happen as often as fairness allows.

The moving parts, each its own module:

:mod:`~repro.serve.request`
    Typed ``Request``/``Response``, affinity keys, and the open-loop
    seeded-Poisson workload generator (simulated clock only — a seed
    replays the exact trace).
:mod:`~repro.serve.queue`
    Bounded admission queue with reject / deadline
    backpressure and per-tenant fairness accounting.
:mod:`~repro.serve.scheduler`
    FIFO baseline and the graph-affinity policy with a starvation guard.
:mod:`~repro.serve.pool`
    The per-graph engine pool whose hits arm
    ``Engine.reset_for_request()`` — the warm-start path.
:mod:`~repro.serve.batching`
    Multi-source BFS/SSSP fused into one dispatch (shared edge reads; the
    batch-size/latency knob) whose trace is composed from memoized
    single-source traces, and the program each dispatch runs.
:mod:`~repro.serve.slo`
    SLO report folded from request-lifecycle events (p50/p95/p99 split
    queueing vs service, goodput, shed rate, per-device utilization) under
    one schema id, with a ``degraded`` section only when device faults
    were observed; digest-stable.
:mod:`~repro.serve.simulator`
    ``ServeConfig`` and ``run_load_test`` — the one-device call into the
    loop below.  Graphs, GPU specs and single-request programs come from
    the harness (:func:`~repro.harness.experiments.make_workload`).
:mod:`~repro.serve.fleet`
    The one discrete-event loop tying it together, for any device count:
    a :class:`~repro.serve.fleet.Router` places each dispatch on a
    per-device engine pool (replicating hot graphs) or fabric-wide through
    the sharded engine (graphs exceeding single-device capacity).  Every
    load test returns a :class:`~repro.serve.fleet.FleetResult`;
    ``repro serve`` and ``repro fleet`` on the CLI differ only in defaults.

Determinism contract: no wall clock, no unseeded randomness, no dict-order
dependence anywhere in this package — a load test is a pure function of
its config, and its digest is pinned in CI.  See ``docs/serving.md``.
"""

from repro.serve.batching import BATCHABLE, FusedTraversal, make_batched
from repro.serve.fleet import (
    FABRIC,
    FleetConfig,
    FleetResult,
    RouteDecision,
    Router,
    fleet_quick_config,
    run_fleet_test,
)
from repro.serve.pool import EnginePool, PoolStats
from repro.serve.queue import QUEUE_POLICIES, AdmissionQueue, TenantAccount
from repro.serve.request import (
    Request,
    RequestStatus,
    Response,
    engine_key,
    generate_requests,
    variant_for,
)
from repro.serve.scheduler import (
    AffinityScheduler,
    FifoScheduler,
    Scheduler,
    make_scheduler,
)
from repro.serve.simulator import (
    ServeConfig,
    quick_config,
    run_load_test,
)
from repro.serve.slo import SLO_SCHEMA, fold_slo, report_digest

__all__ = [
    # requests + workload
    "Request",
    "Response",
    "RequestStatus",
    "BATCHABLE",
    "variant_for",
    "engine_key",
    "generate_requests",
    # admission
    "AdmissionQueue",
    "TenantAccount",
    "QUEUE_POLICIES",
    # scheduling
    "Scheduler",
    "FifoScheduler",
    "AffinityScheduler",
    "make_scheduler",
    # warm engine pool
    "EnginePool",
    "PoolStats",
    # batching
    "FusedTraversal",
    "make_batched",
    # SLO
    "SLO_SCHEMA",
    "fold_slo",
    "report_digest",
    # load tests
    "ServeConfig",
    "run_load_test",
    "quick_config",
    # fleet
    "FABRIC",
    "FleetConfig",
    "FleetResult",
    "Router",
    "RouteDecision",
    "run_fleet_test",
    "fleet_quick_config",
]
