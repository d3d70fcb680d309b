"""Dispatch-order policies: FIFO baseline and graph-affinity.

Both schedulers are pure functions of ``(queued requests, now, warm
keys)`` — no internal state, no randomness — and both share one base
order: priority first (higher runs sooner), then arrival, then request id
as the deterministic tiebreak.

:class:`FifoScheduler` dispatches strictly in that order; it is the
baseline the acceptance test compares against.

:class:`AffinityScheduler` prefers requests whose affinity key
(:func:`~repro.serve.request.engine_key`) already has a warm engine in
the pool, so consecutive dispatches keep hitting the same warm Static
Region instead of ping-ponging between graphs and re-filling on every
run — the cross-request form of the paper's cross-iteration reuse.  A
starvation guard caps the reordering: once the front-of-line request has
waited longer than ``aging_seconds``, it dispatches regardless of
affinity.

Both schedulers batch: after picking the lead request they extend the
dispatch with up to ``max_batch - 1`` queued requests that can fuse with
it (same key, same batchable algorithm — see
:mod:`repro.serve.batching`), taken in the same base order.
"""

from __future__ import annotations

import abc
from typing import Hashable, Sequence, Tuple

from repro.serve.batching import BATCHABLE
from repro.serve.request import Request, engine_key

__all__ = ["Scheduler", "FifoScheduler", "AffinityScheduler", "SCHEDULERS",
           "make_scheduler"]


def _base_key(r: Request) -> Tuple[int, float, int]:
    return (-r.priority, r.arrival, r.request_id)


class Scheduler(abc.ABC):
    """Order policy: which queued request(s) run next."""

    def __init__(self, max_batch: int = 1) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)

    @abc.abstractmethod
    def _pick_lead(self, items: Sequence[Request], now: float,
                   warm_keys: Sequence[Hashable]) -> Request:
        """Choose the request that anchors the next dispatch."""

    def select(self, items: Sequence[Request], now: float,
               warm_keys: Sequence[Hashable] = ()) -> Tuple[Request, ...]:
        """The next batch to dispatch (empty when nothing is queued)."""
        if not items:
            return ()
        lead = self._pick_lead(items, now, warm_keys)
        batch = [lead]
        if self.max_batch > 1 and lead.algorithm in BATCHABLE:
            key = engine_key(lead)
            mates = [r for r in items
                     if r is not lead and r.algorithm == lead.algorithm
                     and engine_key(r) == key]
            mates.sort(key=_base_key)
            batch.extend(mates[: self.max_batch - 1])
        return tuple(batch)


class FifoScheduler(Scheduler):
    """Strict base order: priority, then arrival, then request id."""

    name = "fifo"

    def _pick_lead(self, items: Sequence[Request], now: float,
                   warm_keys: Sequence[Hashable]) -> Request:
        return min(items, key=_base_key)


class AffinityScheduler(Scheduler):
    """Warm-key preference with an aging cap on the reordering."""

    name = "affinity"

    def __init__(self, max_batch: int = 1, aging_seconds: float = 60.0) -> None:
        super().__init__(max_batch)
        if aging_seconds <= 0:
            raise ValueError("aging_seconds must be positive")
        self.aging_seconds = float(aging_seconds)

    def _pick_lead(self, items: Sequence[Request], now: float,
                   warm_keys: Sequence[Hashable]) -> Request:
        head = min(items, key=_base_key)
        if now - head.arrival > self.aging_seconds:
            return head  # starvation guard: affinity never blocks forever
        warm = set(warm_keys)
        warm_items = [r for r in items if engine_key(r) in warm]
        if warm_items:
            return min(warm_items, key=_base_key)
        return head


#: The names :func:`make_scheduler` builds (``repro serve --scheduler``).
SCHEDULERS = ("fifo", "affinity")


def make_scheduler(name: str, max_batch: int = 1,
                   aging_seconds: float = 60.0) -> Scheduler:
    """Construct a scheduler by name (one of :data:`SCHEDULERS`)."""
    if name == "fifo":
        return FifoScheduler(max_batch=max_batch)
    if name == "affinity":
        return AffinityScheduler(max_batch=max_batch,
                                 aging_seconds=aging_seconds)
    raise ValueError(f"unknown scheduler {name!r}; choose from {SCHEDULERS}")
