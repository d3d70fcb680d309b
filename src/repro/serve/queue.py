"""Bounded admission queue with backpressure and per-tenant accounting.

The queue is the serving layer's only backpressure point: offered load
beyond ``capacity`` is *shed*, never buffered unboundedly.  Two policies
decide who pays when the queue is full:

``reject``
    The newcomer is refused (classic bounded queue).
``deadline``
    Expired requests are purged first; if the queue is still full the
    newcomer is rejected.

Independently of policy, a request whose deadline has already passed at
admission time is shed on the spot (running it can only waste service
time), and :meth:`AdmissionQueue.purge_expired` lets the dispatcher drop
requests that expired *while queued*.

Everything here is plain deterministic data structure work — no clocks,
no randomness; time always arrives as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serve.request import Request

__all__ = ["AdmissionQueue", "TenantAccount", "QUEUE_POLICIES"]

#: Recognized backpressure policies.
QUEUE_POLICIES = ("reject", "deadline")


@dataclass
class TenantAccount:
    """Per-tenant fairness ledger (folded into the SLO report)."""

    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    service_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "service_seconds": self.service_seconds,
        }


class AdmissionQueue:
    """FIFO-ordered bounded buffer between arrivals and the scheduler."""

    def __init__(self, capacity: int, policy: str = "reject") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; choose from {QUEUE_POLICIES}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self._items: List[Request] = []
        self.tenants: Dict[str, TenantAccount] = {}

    # ------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def items(self) -> Tuple[Request, ...]:
        """Queued requests in arrival order (a snapshot, safe to iterate)."""
        return tuple(self._items)

    def account(self, tenant: str) -> TenantAccount:
        acct = self.tenants.get(tenant)
        if acct is None:
            acct = self.tenants[tenant] = TenantAccount()
        return acct

    # ---------------------------------------------------------- admission
    def offer(self, request: Request, now: float) -> Tuple[bool, List[Tuple[Request, str]]]:
        """Try to admit ``request`` at time ``now``.

        Returns ``(admitted, shed)`` where ``shed`` lists ``(victim,
        reason)`` pairs — the newcomer itself when refused, and the queued
        requests purged as expired under ``deadline``.
        """
        acct = self.account(request.tenant)
        acct.submitted += 1
        if request.expired(now):
            acct.shed += 1
            return False, [(request, "deadline-at-admission")]
        shed: List[Tuple[Request, str]] = []
        if len(self._items) >= self.capacity and self.policy == "deadline":
            shed.extend(self.purge_expired(now))
        if len(self._items) >= self.capacity:
            acct.shed += 1
            shed.append((request, "queue-full"))
            return False, shed
        self._items.append(request)
        acct.admitted += 1
        return True, shed

    def purge_expired(self, now: float) -> List[Tuple[Request, str]]:
        """Remove every queued request whose deadline passed; returns them."""
        expired = [r for r in self._items if r.expired(now)]
        if expired:
            self._items = [r for r in self._items if not r.expired(now)]
            for r in expired:
                self.account(r.tenant).shed += 1
        return [(r, "deadline-in-queue") for r in expired]

    def take(self, request: Request) -> None:
        """Remove a request the scheduler dispatched."""
        self._items.remove(request)

    def note_completed(self, request: Request, service_seconds: float) -> None:
        """Credit a completed request to its tenant's ledger."""
        acct = self.account(request.tenant)
        acct.completed += 1
        acct.service_seconds += service_seconds
