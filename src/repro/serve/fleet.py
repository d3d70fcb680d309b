"""The serving loop: a router in front of per-device engine pools.

One discrete-event loop serves every load test.  Arrivals are offered to
the bounded admission queue *at their own arrival times* (so queue
contention during a long service is evaluated faithfully), the scheduler
picks the next batch when a device frees up, a :class:`Router` decides
which device serves it, that device's engine pool supplies a warm or cold
engine, and the engine's simulated ``run`` provides the service time.  A
single server is the one-device case
(:func:`~repro.serve.simulator.run_load_test`), not a second code path.
With N devices sharing the queue two placement regimes fall out:

* **replicate-hot** — requests for a graph that fits a device land on
  whichever free device already holds its warm Static Region (affinity),
  else on the least-loaded free device; a hot graph therefore gets
  replicated across devices organically, one warm pool entry per device
  that served it.
* **shard-oversized** — a graph whose (scaled) edge array exceeds
  ``shard_over`` × the largest single device's capacity is routed to the
  fabric: one :class:`ShardedEngine` run over all devices, with the
  inter-device exchange traffic charged by the fabric's cost model and
  surfaced in the SLO report's ``fleet`` section.

The batching knob: with ``max_batch > 1`` the dispatcher may *hold* a free
device for up to ``batch_wait`` seconds when another arrival is imminent
and the queue has not yet filled a batch — trading first-request latency
for fused service (see :mod:`repro.serve.batching`).

Every timestamp lives on the serve clock — the same virtual-time
discipline as :mod:`repro.gpusim` — and every random draw comes from the
workload generator's seeded stream, so a config replays bit for bit: same
request trace, same event stream, same SLO report, same digest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engines import registry
from repro.engines.base import RunResult
from repro.gpusim.events import EventColumns, EventLog
from repro.gpusim.fabric import FabricSpec
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.harness.experiments import make_workload
from repro.serve.batching import program_for
from repro.serve.pool import EnginePool, PoolStats
from repro.serve.queue import AdmissionQueue, TenantAccount
from repro.serve.request import (
    Request,
    RequestStatus,
    Response,
    engine_key,
    generate_requests,
)
from repro.serve.scheduler import make_scheduler
from repro.serve.simulator import ServeConfig, finite
from repro.serve.slo import fold_slo, report_digest

__all__ = [
    "FABRIC",
    "FleetConfig",
    "FleetResult",
    "RouteDecision",
    "Router",
    "fleet_quick_config",
    "run_fleet_test",
]

#: Pseudo-device id for a fabric-wide (sharded) dispatch.
FABRIC = -1


@dataclass(frozen=True)
class FleetConfig:
    """Everything a load test depends on — the digest's whole input."""

    #: The workload / queue / scheduler / pool knobs: the part of the
    #: input that does not depend on how many devices serve it.
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Device count, per-device memories, and link topology.
    fabric: FabricSpec = field(default_factory=FabricSpec)
    #: Shard threshold: route a graph fabric-wide when its scaled edge
    #: bytes exceed ``shard_over`` × the largest device capacity.
    #: ``None`` disables sharding (replicate-only routing).
    shard_over: Optional[float] = None
    #: Chaos mode: a seeded fault plan whose device faults (times on the
    #: *serve* clock) the loop replays — failed dispatches, router
    #: failover, degraded sharded fabrics.  ``None`` = fault-free.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.shard_over is not None and not (
                finite(self.shard_over) and self.shard_over > 0):
            raise ValueError("shard_over must be finite and positive (or None "
                             f"to turn sharding off), got {self.shard_over!r}")
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_dict(self.fault_plan))

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "serve": self.serve.as_dict(),
            "fabric": self.fabric.to_dict(),
            "shard_over": self.shard_over,
        }
        # Omitted when absent: the convention of ``RunSpec.to_dict``.
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        return out


@dataclass(frozen=True)
class RouteDecision:
    """Where one dispatch goes and why (the ``reason`` shows up in tests
    and the router bench, not in the digest)."""

    #: Device id, or :data:`FABRIC` for a fabric-wide sharded run.
    target: int
    reason: str  # "warm-affinity" | "least-loaded" | "oversized"

    @property
    def sharded(self) -> bool:
        return self.target == FABRIC


class Router:
    """Deterministic placement policy in front of the admission queue.

    Decision order (first match wins):

    1. **oversized** — the graph's scaled edge array exceeds
       ``shard_over`` × the largest single-device capacity: run it
       fabric-wide with :class:`~repro.engines.sharded.ShardedEngine`.
    2. **warm-affinity** — a free device's pool already holds the
       affinity key: route there (lowest device id on ties).
    3. **least-loaded** — the free device with the fewest pooled engines
       (lowest id on ties), which spreads replicas of hot graphs across
       the fleet.

    The router also keeps per-device **circuit-breaker** state for chaos
    runs: :attr:`BREAKER_THRESHOLD` consecutive failed dispatches open a
    device's breaker (:meth:`note_failure`), after which :meth:`usable`
    reports it unroutable until :attr:`PROBE_INTERVAL` sim-seconds have
    passed — the half-open probe.  A completed dispatch
    (:meth:`note_success`) closes the breaker and clears the failure count.
    All state advances on the deterministic serve clock, never wall time.
    """

    #: Consecutive failed dispatches that open a device's breaker.
    BREAKER_THRESHOLD = 2
    #: Sim-seconds an open breaker waits before its half-open probe.
    PROBE_INTERVAL = 5.0

    def __init__(self, spec: FabricSpec,
                 shard_over: Optional[float] = None) -> None:
        self.spec = spec
        if shard_over is not None and shard_over <= 0:
            raise ValueError("shard_over must be positive (or None)")
        self.shard_over = shard_over
        self._failures: Dict[int, int] = {}
        self._open_at: Dict[int, float] = {}

    # ------------------------------------------------------ circuit breaker
    def note_failure(self, device: int, t: float) -> bool:
        """Record a failed dispatch at sim time ``t``; True when this trip
        opens the device's breaker."""
        self._failures[device] = self._failures.get(device, 0) + 1
        if device not in self._open_at \
                and self._failures[device] >= self.BREAKER_THRESHOLD:
            self._open_at[device] = t
            return True
        return False

    def note_success(self, device: int) -> bool:
        """Record a completed dispatch; True when it closes an open breaker
        (a half-open probe that succeeded)."""
        self._failures.pop(device, None)
        return self._open_at.pop(device, None) is not None

    def usable(self, device: int, t: float) -> bool:
        """Whether the breaker allows routing to ``device`` at time ``t``
        (closed, or open long enough that a half-open probe is due)."""
        opened = self._open_at.get(device)
        if opened is None:
            return True
        return t >= opened + self.PROBE_INTERVAL

    def capacity(self, default_memory_bytes: int) -> int:
        """The largest single-device capacity in the fabric (scaled bytes)."""
        return max(self.spec.memory_of(d, default_memory_bytes)
                   for d in range(self.spec.n_devices))

    def oversized(self, edge_bytes: int, default_memory_bytes: int) -> bool:
        """Whether a graph of ``edge_bytes`` must be sharded fabric-wide."""
        if self.shard_over is None:
            return False
        return edge_bytes > self.shard_over * self.capacity(
            default_memory_bytes)

    def decide(self, key: Tuple[str, str], edge_bytes: int,
               default_memory_bytes: int, free_devices: Sequence[int],
               pools: Sequence[EnginePool]) -> RouteDecision:
        if self.oversized(edge_bytes, default_memory_bytes):
            return RouteDecision(FABRIC, "oversized")
        if not free_devices:
            raise ValueError("router needs at least one free device")
        for d in free_devices:
            if key in pools[d].warm_keys():
                return RouteDecision(d, "warm-affinity")
        best = min(free_devices, key=lambda d: (len(pools[d]), d))
        return RouteDecision(best, "least-loaded")


@dataclass
class FleetResult:
    """One load test's full, replayable output (any device count)."""

    config: FleetConfig
    requests: Tuple[Request, ...]
    responses: Tuple[Response, ...]
    #: The serve log's recorded rows (``log.events``); :func:`fold_slo`
    #: re-folds them into ``report``.
    events: EventColumns
    report: Dict[str, Any]
    #: Per-device warm-reuse ledgers (device id → stats).
    device_pool_stats: Dict[int, PoolStats]
    tenants: Dict[str, TenantAccount]
    horizon: float = 0.0
    run_results: List[RunResult] = field(default_factory=list)

    @property
    def pool_stats(self) -> PoolStats:
        """All devices' ledgers merged (fleet-wide totals)."""
        merged = PoolStats()
        for d in sorted(self.device_pool_stats):
            merged.merge(self.device_pool_stats[d])
        return merged

    def trace_payload(self) -> Dict[str, Any]:
        """Canonical JSON-able form of trace + outcomes + report."""
        return {
            "config": self.config.as_dict(),
            "requests": [asdict(r) for r in self.requests],
            "responses": [
                {
                    "request_id": resp.request.request_id,
                    "status": resp.status.value,
                    "shed_reason": resp.shed_reason,
                    "start_time": resp.start_time,
                    "finish_time": resp.finish_time,
                    "batch_size": resp.batch_size,
                    "warm": resp.warm,
                    "device": resp.device,
                    "retries": resp.retries,
                }
                for resp in self.responses
            ],
            "report": self.report,
        }

    def run_digest(self) -> str:
        """Digest over trace + responses + report (the CI-pinned value)."""
        return report_digest(self.trace_payload())


def run_fleet_test(config: FleetConfig,
                   requests: Optional[Tuple[Request, ...]] = None
                   ) -> FleetResult:
    """Run one seeded load test; pure function of ``(config, requests)``.

    ``requests`` overrides the generated trace (tests build hand-crafted
    traces; the CLI always generates from the config's seed).
    """
    serve = config.serve
    if requests is None:
        requests = generate_requests(
            n_requests=serve.n_requests,
            seed=serve.seed,
            arrival_rate=serve.arrival_rate,
            graphs=serve.graphs,
            algorithms=serve.algorithms,
            tenants=serve.tenants,
            priorities=serve.priorities,
            deadline=serve.deadline,
            multi_source=serve.multi_source,
        )
    n_devices = config.fabric.n_devices
    log = EventLog(record=True)
    queue = AdmissionQueue(serve.queue_capacity, serve.queue_policy)
    scheduler = make_scheduler(serve.scheduler, serve.max_batch,
                               serve.aging_seconds)
    pools = [EnginePool(serve.max_engines) for _ in range(n_devices)]
    router = Router(config.fabric, config.shard_over)
    responses: Dict[int, Response] = {}
    run_results: List[RunResult] = []
    plan = config.fault_plan
    injector: Optional[FaultInjector] = None
    if plan is not None and not plan.is_null:
        injector = FaultInjector(plan, seed=serve.seed)
        # Narrate the plan's device timeline up front: the outage windows
        # are plan facts (serve-clock times), not discoveries, and their
        # markers are what gates the report's ``degraded`` section.
        for f in sorted(plan.device_faults,
                        key=lambda f: (f.start, f.device)):
            log.marker("device-down", f"dev{f.device}", f.start,
                       device=f.device, extra=(("device", float(f.device)),))
            if f.end is not None:
                log.marker("device-up", f"dev{f.device}", f.end,
                           device=f.device,
                           extra=(("device", float(f.device)),))
        for i, w in enumerate(plan.peer_degradations):
            log.marker("peer-degrade", f"window{i}", w.start,
                       extra=(("factor", float(w.factor)),
                              ("until", float(w.end))))

    def shed(victim: Request, reason: str, t: float) -> None:
        log.marker("request-shed", reason, t,
                   extra=(("request", float(victim.request_id)),))
        responses[victim.request_id] = Response(
            request=victim, status=RequestStatus.SHED, shed_reason=reason)

    def admit_until(t: float) -> None:
        nonlocal next_arrival
        while next_arrival < len(requests) \
                and requests[next_arrival].arrival <= t:
            r = requests[next_arrival]
            next_arrival += 1
            log.marker(
                "request-arrive", f"{r.tenant}/{r.graph_id}/{r.algorithm}",
                r.arrival,
                extra=(("request", float(r.request_id)),
                       ("deadline", -1.0 if r.deadline is None
                        else float(r.deadline)),
                       ("priority", float(r.priority))))
            for victim, reason in queue.purge_expired(r.arrival):
                shed(victim, reason, r.arrival)
            admitted, dropped = queue.offer(r, r.arrival)
            for victim, reason in dropped:
                shed(victim, reason, r.arrival)
            if admitted:
                log.marker("request-admit", r.tenant, r.arrival,
                           extra=(("request", float(r.request_id)),))

    def warm_union(free: Sequence[int]) -> Tuple[Any, ...]:
        """Warm keys across the free devices' pools, device order, deduped."""
        seen = []
        for d in free:
            for key in pools[d].warm_keys():
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    next_arrival = 0
    free_at = [0.0] * n_devices
    now = 0.0
    while next_arrival < len(requests) or queue:
        alive_times = [t for t in free_at if t != math.inf]
        if not alive_times:
            # The whole fleet is down: everything still queued (or yet to
            # arrive) can only be shed.
            if requests:
                admit_until(max(now, requests[-1].arrival))
            for victim in list(queue.items):
                queue.take(victim)
                shed(victim, "fleet-down", now)
            break
        now = max(now, min(alive_times))
        if not queue:
            if next_arrival >= len(requests):
                break
            now = max(now, requests[next_arrival].arrival)
        admit_until(now)
        if not queue:
            continue  # the shed path can drain what just arrived
        # Hold a free device briefly if another arrival could complete a
        # batch — the latency/throughput tradeoff knob.
        if (serve.max_batch > 1 and serve.batch_wait > 0
                and next_arrival < len(requests)
                and len(queue) < serve.max_batch
                and requests[next_arrival].arrival <= now + serve.batch_wait):
            now = requests[next_arrival].arrival
            continue
        for victim, reason in queue.purge_expired(now):
            shed(victim, reason, now)
        if not queue:
            continue
        free = [d for d in range(n_devices) if free_at[d] <= now]
        batch = scheduler.select(queue.items, now, warm_union(free))
        for r in batch:
            queue.take(r)
        key = engine_key(batch[0])
        workload = make_workload(batch[0].graph_id, batch[0].algorithm,
                                 scale=serve.scale)
        graph, spec = workload.graph, workload.spec
        data_scale = workload.scale

        def start_markers(t: float, device: int, pooled: bool) -> None:
            log.marker("warm-hit" if pooled else "warm-miss",
                       f"{key[0]}/{key[1]}", t,
                       extra=(("requests", float(len(batch))),
                              ("device", float(device))))
            for r in batch:
                log.marker("request-start", r.tenant, t,
                           extra=(("request", float(r.request_id)),
                                  ("batch", float(len(batch))),
                                  ("warm", 1.0 if pooled else 0.0),
                                  ("device", float(device))))

        route_free = free
        if injector is not None:
            # The breaker's view filters routing; if it rules out every
            # free device, fall through so a half-open probe can happen.
            route_free = [d for d in free if router.usable(d, now)] or free
        decision = router.decide(key, graph.edge_array_bytes,
                                 spec.memory_bytes, route_free, pools)

        if decision.sharded:
            # Fabric-wide dispatch: wait for every surviving device, then
            # run the graph sharded across them — a chaos run degrades to
            # the surviving-device fabric instead of stalling forever on a
            # dead peer.
            survivors = [d for d in range(n_devices)
                         if free_at[d] != math.inf]
            start = max([now] + [free_at[d] for d in survivors])
            admit_until(start)
            fab = config.fabric
            if len(survivors) < n_devices:
                mems = None
                if fab.device_mems is not None:
                    mems = tuple(fab.device_mems[d] for d in survivors)
                fab = replace(fab, n_devices=len(survivors),
                              device_mems=mems)
            engine = registry.create(
                "Sharded", spec=spec, data_scale=data_scale,
                fabric=fab, inner=serve.engine)
            pooled, device, attempt = False, FABRIC, 0
            start_markers(start, device, pooled)
            result = engine.run(graph, program_for(batch, workload))
            finish = start + result.elapsed_seconds
            busy_devices = survivors
        else:
            device = decision.target
            start, attempt, dead_end = now, 0, False
            while True:
                state = ("up" if injector is None
                         else injector.device_state(device, start))
                if state != "up":
                    # Dead (or stalled) before the dispatch even started.
                    fail_t, lost = start, state == "down"
                else:
                    engine, pooled = pools[device].acquire(
                        key, lambda: registry.create(serve.engine, spec=spec,
                                                     data_scale=data_scale))
                    result = engine.run(graph, program_for(batch, workload))
                    finish = start + result.elapsed_seconds
                    down_t = (None if injector is None
                              else injector.device_down_at(device))
                    if down_t is None or not (start < down_t < finish):
                        start_markers(start, device, pooled)
                        break
                    # Died mid-service: the work until the death is lost.
                    fail_t, lost = down_t, True
                if lost:
                    free_at[device] = math.inf
                log.marker("device-fail", f"dev{device}", fail_t,
                           device=device,
                           extra=(("device", float(device)),
                                  ("attempt", float(attempt))))
                if router.note_failure(device, fail_t):
                    log.marker("breaker-open", f"dev{device}", fail_t,
                               device=device,
                               extra=(("device", float(device)),))
                for r in batch:
                    log.marker("request-retry", r.tenant, fail_t,
                               extra=(("request", float(r.request_id)),
                                      ("from", float(device)),
                                      ("attempt", float(attempt))))
                # Deterministic backoff before the relocated attempt,
                # charged as queue time (start moves later, service does
                # not).
                start = fail_t + injector.plan.backoff_seconds(attempt)
                attempt += 1
                candidates = [d for d in range(n_devices)
                              if free_at[d] != math.inf
                              and router.usable(d, start)]
                if not candidates:
                    candidates = [d for d in range(n_devices)
                                  if free_at[d] != math.inf]
                if not candidates:
                    dead_end = True
                    break
                if all(free_at[d] > start for d in candidates):
                    start = min(free_at[d] for d in candidates)
                ready = [d for d in candidates if free_at[d] <= start]
                device = router.decide(key, graph.edge_array_bytes,
                                       spec.memory_bytes, ready,
                                       pools).target
            if dead_end:
                for r in batch:
                    shed(r, "fleet-down", start)
                now = start
                continue
            if router.note_success(device):
                log.marker("breaker-close", f"dev{device}", start,
                           device=device,
                           extra=(("device", float(device)),))
            busy_devices = [device]
        run_results.append(result)
        warm_run = bool(result.extra.get("warm_start", 0.0))
        if decision.sharded:
            for d in busy_devices:
                free_at[d] = finish
        else:
            pools[device].fold_result(result)
            free_at[device] = finish
        log.marker(
            "dispatch", "fabric" if decision.sharded else f"dev{device}",
            start,
            extra=(("device", float(device)),
                   ("devices", float(len(busy_devices)
                                     if decision.sharded else n_devices)),
                   ("requests", float(len(batch))),
                   ("service", float(result.elapsed_seconds)),
                   ("exchange_bytes",
                    float(result.extra.get("exchange_bytes", 0.0)))))
        for r in batch:
            log.marker("request-complete", r.tenant, finish,
                       extra=(("request", float(r.request_id)),
                              ("warm_start", 1.0 if warm_run else 0.0),
                              ("device", float(device))))
            queue.note_completed(r, result.elapsed_seconds)
            responses[r.request_id] = Response(
                request=r, status=RequestStatus.COMPLETED,
                start_time=start, finish_time=finish,
                batch_size=len(batch), warm=warm_run, device=device,
                retries=attempt)
        now = start  # the next free device may predate this finish

    done = [resp.finish_time for resp in responses.values()
            if resp.finish_time is not None]
    horizon = max(done + [r.arrival for r in requests]) if requests else 0.0
    report = fold_slo(log.events, horizon=horizon)
    return FleetResult(
        config=config,
        requests=requests,
        responses=tuple(responses[r.request_id] for r in requests),
        events=log.events,
        report=report,
        device_pool_stats={d: pools[d].stats for d in range(n_devices)},
        tenants=dict(queue.tenants),
        horizon=horizon,
        run_results=run_results,
    )


def fleet_quick_config(seed: int = 0, n_devices: int = 2,
                       topology: str = "pcie") -> FleetConfig:
    """The tiny seeded multi-device load test behind ``repro fleet --quick``.

    Same spirit as :func:`~repro.serve.simulator.quick_config`, with two
    graphs so both router regimes fire: GS requests replicate across the
    devices' warm pools while FK — pushed over the ``shard_over``
    threshold — runs fabric-wide through the sharded engine, exercising
    the exchange-phase accounting in the SLO report.
    """
    return FleetConfig(
        serve=ServeConfig(
            seed=seed,
            n_requests=16,
            arrival_rate=0.5,
            graphs=("GS", "FK"),
            algorithms=("BFS", "CC", "SSSP"),
            tenants=("acme", "beta"),
            priorities=(0, 1),
            deadline=90.0,
            multi_source=2,
            engine="Ascetic",
            scale=5e-5,
            queue_capacity=8,
            queue_policy="deadline",
            scheduler="affinity",
            max_batch=2,
            batch_wait=0.25,
            max_engines=2,
        ),
        fabric=FabricSpec(n_devices=n_devices, topology=topology),
        # Literal "exceeds a single device's capacity": GS's plain edge
        # array fits (0.72x device memory at this scale) and replicates;
        # FK's (1.04x) and the weighted views go fabric-wide.
        shard_over=1.0,
    )
