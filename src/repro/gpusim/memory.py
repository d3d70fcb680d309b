"""Device-memory allocator.

Models the finite GDDR5 capacity the whole paper is about.  Engines allocate
named regions (vertex state, partition buffer, Static Region, On-demand
Region, UVM-resident pool); exceeding capacity raises
:class:`GPUOutOfMemory`, exactly the constraint that forces out-of-memory
processing in the first place.

The allocator is a byte-accounting allocator, not an address-space model:
placement/fragmentation is irrelevant to every policy in the paper (all
regions are long-lived arenas), so only sizes are tracked.

Chaos mode wires a :class:`~repro.gpusim.faults.FaultInjector` into the
allocator: an allocation whose name appears in the plan's
``alloc_failures`` list fails transiently (``injected=True`` on the raised
:class:`GPUOutOfMemory`) even though capacity was sufficient, forcing the
engine recovery ladders (retry → shrink → degrade) to run.  Either way the
exception carries a structured payload — requested/available/capacity bytes
plus a live-allocation snapshot — so recovery code can decide how much to
shrink instead of parsing a message string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Allocation", "DeviceMemory", "GPUOutOfMemory"]


class GPUOutOfMemory(RuntimeError):
    """Requested allocation exceeds remaining device memory.

    Carries a structured payload so engine recovery code can size its
    response: ``name``/``requested``/``available``/``capacity`` in bytes,
    ``live`` — a ``{name: nbytes}`` snapshot of live allocations at raise
    time — and ``injected``, True when the failure came from a chaos-mode
    :class:`~repro.gpusim.faults.FaultPlan` rather than real capacity
    pressure (injected failures are transient: a plain retry may succeed).
    """

    def __init__(self, message: str, *, name: Optional[str] = None,
                 requested: Optional[int] = None,
                 available: Optional[int] = None,
                 capacity: Optional[int] = None,
                 live: Optional[Dict[str, int]] = None,
                 injected: bool = False) -> None:
        super().__init__(message)
        self.name = name
        self.requested = requested
        self.available = available
        self.capacity = capacity
        self.live = dict(live) if live is not None else None
        self.injected = injected


@dataclass
class Allocation:
    """A live, named slice of device memory."""

    name: str
    nbytes: int
    freed: bool = False


class DeviceMemory:
    """Byte-accounting allocator over a fixed capacity.

    ``faults``/``events``/``clock`` are optional chaos-mode wiring: when a
    fault injector is attached, allocations it targets raise a transient
    :class:`GPUOutOfMemory` (and, when an event log is attached, drop an
    ``alloc-fault`` marker at the current virtual time).
    """

    def __init__(self, capacity_bytes: int, faults=None, events=None,
                 clock=None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity_bytes)
        self._allocs: Dict[str, Allocation] = {}
        self._used = 0
        self.faults = faults
        self.events = events
        self.clock = clock

    @property
    def available(self) -> int:
        return self.capacity - self._used

    def _oom(self, message: str, name: str, requested: int,
             injected: bool = False) -> GPUOutOfMemory:
        return GPUOutOfMemory(
            message, name=name, requested=requested,
            available=self.available, capacity=self.capacity,
            live=self.live_allocations(), injected=injected,
        )

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Reserve ``nbytes`` under ``name``.  Names must be unique while live."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self._allocs:
            raise ValueError(f"allocation {name!r} already exists")
        # Injected transient failures: only for real (non-zero) requests, so
        # degraded zero-byte placeholders always succeed and ladders
        # terminate.
        if nbytes > 0 and self.faults is not None \
                and self.faults.alloc_should_fail(name):
            if self.events is not None:
                now = self.clock.now if self.clock is not None else 0.0
                self.events.marker("alloc-fault", name, now,
                                   extra=(("requested", nbytes),))
            raise self._oom(
                f"alloc {name!r} of {nbytes:,} B failed (injected fault)",
                name, nbytes, injected=True,
            )
        if nbytes > self.available:
            raise self._oom(
                f"alloc {name!r} of {nbytes:,} B exceeds available "
                f"{self.available:,} B (capacity {self.capacity:,} B)",
                name, nbytes,
            )
        a = Allocation(name=name, nbytes=nbytes)
        self._allocs[name] = a
        self._used += nbytes
        return a

    def free(self, alloc: Allocation) -> None:
        """Release a live allocation (double-free raises)."""
        if alloc.freed or self._allocs.get(alloc.name) is not alloc:
            raise ValueError(f"allocation {alloc.name!r} is not live")
        alloc.freed = True
        del self._allocs[alloc.name]
        self._used -= alloc.nbytes

    def resize(self, alloc: Allocation, nbytes: int) -> None:
        """Grow or shrink a live allocation in place (Ascetic's Eq. 3 repartition)."""
        nbytes = int(nbytes)
        if alloc.freed or self._allocs.get(alloc.name) is not alloc:
            raise ValueError(f"allocation {alloc.name!r} is not live")
        if nbytes < 0:
            raise ValueError("size must be non-negative")
        delta = nbytes - alloc.nbytes
        if delta > self.available:
            raise self._oom(
                f"resize {alloc.name!r} to {nbytes:,} B exceeds available "
                f"{self.available:,} B (capacity {self.capacity:,} B)",
                alloc.name, nbytes,
            )
        alloc.nbytes = nbytes
        self._used += delta

    def release_all(self) -> None:
        """Free every live allocation (a device dropping its whole layout).

        The fleet recovery path uses this when a survivor abandons its old
        shard's placement to re-stage a larger re-tiled shard — equivalent
        to freeing each allocation individually, just without the caller
        having to hold the handles.
        """
        for a in list(self._allocs.values()):
            self.free(a)

    def live_allocations(self) -> Dict[str, int]:
        """Snapshot of live allocation sizes (for tests and reports)."""
        return {name: a.nbytes for name, a in self._allocs.items()}
