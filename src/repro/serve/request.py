"""Typed requests, responses, and the open-loop workload generator.

A :class:`Request` is one tenant's ask: run one algorithm on one named
dataset, optionally from explicit source vertices, with a priority and an
absolute deadline on the *simulated* clock.  Arrivals come from
:func:`generate_requests` — a seeded open-loop Poisson process: every
timestamp derives from one ``numpy`` RNG stream, never from wall clock, so
the same seed replays the exact same trace bit for bit (the serving
layer's determinism contract, see ``docs/serving.md``).

Engine affinity is keyed by :func:`engine_key`: the *(graph id, variant)*
pair that decides which device-resident graph bytes a request needs.  The
variant is the one the algorithm's program class declares
(``VertexProgram.variant``).  Algorithms sharing a variant (BFS/CC/PR all
stream the plain forward CSR) run on one graph object and can reuse each
other's warm Static Region; SSSP needs the weighted arrays, KCORE the
symmetrized view, PR-PULL the reverse CSR — different bytes, different
key, no warmth shared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import PROGRAMS
from repro.serve.batching import BATCHABLE

__all__ = [
    "Request",
    "Response",
    "RequestStatus",
    "variant_for",
    "engine_key",
    "generate_requests",
]


class RequestStatus(enum.Enum):
    """Terminal disposition of a request."""

    #: Still queued (a response never carries this).
    PENDING = "pending"
    #: Rejected or dropped by the admission queue / deadline policy.
    SHED = "shed"
    #: Ran to completion (possibly past its deadline — see goodput).
    COMPLETED = "completed"


@dataclass(frozen=True)
class Request:
    """One unit of offered load.

    Times are seconds on the simulated clock.  ``deadline`` is absolute
    (not a budget); ``None`` means best-effort.  ``sources`` is ``None``
    for "engine picks" (the max-out-degree hub, like the harness), else a
    tuple of vertex ids the dispatch folds into range with a modulo.
    """

    request_id: int
    tenant: str
    graph_id: str
    algorithm: str
    arrival: float
    priority: int = 0
    deadline: Optional[float] = None
    sources: Optional[Tuple[int, ...]] = None

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at ``now`` (inclusive)."""
        return self.deadline is not None and now >= self.deadline


def variant_for(algorithm: str) -> str:
    """The graph variant ``algorithm`` streams: its program class's
    ``variant`` (plain/weighted/sym/rev)."""
    try:
        return PROGRAMS[algorithm.upper()].variant
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(PROGRAMS)}"
        ) from None


def engine_key(request: Request) -> Tuple[str, str]:
    """The affinity key: requests with equal keys share warm graph bytes."""
    return (request.graph_id, variant_for(request.algorithm))


@dataclass(frozen=True)
class Response:
    """What happened to one request, with its latency split.

    ``queue_seconds`` spans arrival → dispatch; ``service_seconds`` spans
    dispatch → completion (the engine's simulated run time, divided by
    nothing — a batched run charges every member the full batch service
    time, which is exactly the latency cost the batching knob trades
    against throughput).  Shed requests carry only the shed time.
    """

    request: Request
    status: RequestStatus
    #: Why a shed request was dropped (policy name), "" for completions.
    shed_reason: str = ""
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    batch_size: int = 1
    warm: bool = False
    #: Device that served the request (``None`` if it was shed; ``-1`` = a
    #: fabric-wide sharded dispatch).
    device: Optional[int] = None
    #: How many dispatch attempts failed (device death / circuit breaker)
    #: before the one that completed — 0 on every fault-free path.
    retries: int = 0

    @property
    def completed(self) -> bool:
        return self.status is RequestStatus.COMPLETED

    @property
    def queue_seconds(self) -> float:
        if self.start_time is None:
            return 0.0
        return self.start_time - self.request.arrival

    @property
    def service_seconds(self) -> float:
        if self.start_time is None or self.finish_time is None:
            return 0.0
        return self.finish_time - self.start_time

    @property
    def e2e_seconds(self) -> float:
        if self.finish_time is None:
            return 0.0
        return self.finish_time - self.request.arrival

    @property
    def deadline_met(self) -> bool:
        """Completed at or before the deadline (best-effort always counts)."""
        if not self.completed:
            return False
        if self.request.deadline is None:
            return True
        return self.finish_time <= self.request.deadline


#: Raw source ids of a multi-source request are drawn from ``[0, 64)``.
SOURCE_POOL = 64


def generate_requests(
    n_requests: int,
    seed: int,
    arrival_rate: float,
    graphs: Sequence[str],
    algorithms: Sequence[str],
    tenants: Sequence[str] = ("t0",),
    priorities: Sequence[int] = (0,),
    deadline: Optional[float] = None,
    multi_source: int = 1,
) -> Tuple[Request, ...]:
    """Draw an open-loop Poisson request trace from one seeded RNG stream.

    ``arrival_rate`` is requests per simulated second; inter-arrival gaps
    are exponential.  ``deadline`` is a per-request budget in seconds after
    arrival (``None`` = best-effort).  ``multi_source`` > 1 makes batchable
    algorithms (BFS/SSSP) carry that many explicit sources drawn from
    ``[0, SOURCE_POOL)`` — the raw ids are folded into the graph's vertex
    range when the dispatch builds its program.  Everything — gaps,
    tenant, graph, algorithm, priority, sources — comes from the single
    ``default_rng(seed)`` stream in a fixed draw order, so the trace is a
    pure function of the arguments.  A malformed argument (a bool or
    negative ``n_requests``, no tenants or priorities, a non-positive or
    NaN ``arrival_rate`` or ``deadline``) raises ``ValueError`` naming it.
    """
    if (isinstance(n_requests, bool) or not isinstance(n_requests, Integral)
            or n_requests < 0):
        raise ValueError(
            f"n_requests must be a non-negative integer, got {n_requests!r}")
    if not arrival_rate > 0:  # NaN too: its gaps would all be NaN
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate!r}")
    if not graphs or not algorithms:
        raise ValueError("need at least one graph and one algorithm")
    if not tenants or not priorities:
        raise ValueError("tenants and priorities must be non-empty")
    if deadline is not None and not deadline > 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    if multi_source < 1:
        raise ValueError("multi_source must be >= 1")
    for algo in algorithms:
        variant_for(algo)  # validate early, not at dispatch
    rng = np.random.default_rng(seed)
    out = []
    now = 0.0
    for rid in range(n_requests):
        now += float(rng.exponential(1.0 / arrival_rate))
        algo = algorithms[int(rng.integers(len(algorithms)))].upper()
        sources: Optional[Tuple[int, ...]] = None
        if algo in BATCHABLE and multi_source > 1:
            sources = tuple(
                int(s) for s in rng.integers(SOURCE_POOL, size=multi_source)
            )
        out.append(Request(
            request_id=rid,
            tenant=tenants[int(rng.integers(len(tenants)))],
            graph_id=graphs[int(rng.integers(len(graphs)))],
            algorithm=algo,
            arrival=now,
            priority=int(priorities[int(rng.integers(len(priorities)))]),
            deadline=None if deadline is None else now + float(deadline),
            sources=sources,
        ))
    return tuple(out)
