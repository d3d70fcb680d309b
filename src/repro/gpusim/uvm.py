"""Unified Virtual Memory model.

NVIDIA UVM (§2.1, §4.4) migrates pages to the GPU on demand and evicts with
an LRU policy when device memory oversubscribes.  The paper attributes UVM's
poor showing to three effects, all modelled here:

1. page-granularity migration (a page holds many inactive edges, so sparse
   access patterns amplify traffic) — the engine maps touched edges to pages
   and whole pages move;
2. LRU defeated by reuse distances longer than device memory — the resident
   set is a true LRU over pages;
3. page-fault handling overhead — faults are charged per fault *batch*
   (the driver services faults in groups), on top of migration bandwidth.

``advise_pin`` models ``cudaMemAdvise(SetPreferredLocation, device)``:
pinned pages are prefetched once and never evicted, the optimization the
paper applies to its UVM baseline (§4.1).

When wired to an :class:`~repro.gpusim.events.EventLog` (and the run's
clock), the pager *emits* fault/migration/eviction events instead of
leaving callers to poke counters: each :meth:`touch` produces one instant
``uvm-fault`` marker carrying the fault/migration/eviction deltas, and
``prefetch``/``advise_pin`` leave ``uvm-prefetch``/``uvm-pin`` markers.
The run metrics are folded from these like every other event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import EventLog

__all__ = ["UVMMemory", "UVMAccess"]


def _sorted_unique(pages) -> np.ndarray:
    """Any page ids, any order or shape → sorted, duplicate-free int64.

    Costs one compare when the input is already strictly increasing (the
    engine passes ``np.nonzero`` output); that case returns the caller's
    array itself, so the pager only ever reads it.
    """
    pages = np.asarray(pages, dtype=np.int64).ravel()
    if (pages[1:] > pages[:-1]).all():
        return pages
    pages = np.sort(pages)
    keep = np.ones(pages.size, dtype=bool)
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


@dataclass(frozen=True)
class UVMAccess:
    """Outcome of touching a set of pages in one kernel."""

    n_touched: int
    n_faults: int
    n_evicted: int
    bytes_migrated: int


class UVMMemory:
    """LRU-managed page residency over a managed allocation.

    Parameters
    ----------
    managed_bytes:
        Size of the managed (oversubscribed) allocation — the edge array.
    capacity_bytes:
        Device memory available for its pages.
    page_size:
        Migration granularity (default 64 KB; UVM uses 64 KB–2 MB, §2).
    events / clock:
        When given, pager activity is emitted into the event log as
        instant markers stamped with the clock's current virtual time
        (fault/migration/eviction counters ride on the ``uvm-fault``
        marker).  Without them the pager is purely mechanical.
    """

    def __init__(self, managed_bytes: int, capacity_bytes: int,
                 page_size: int = 64 * 1024,
                 events: Optional[EventLog] = None,
                 clock: Optional[VirtualClock] = None):
        if managed_bytes < 0 or capacity_bytes < 0 or page_size <= 0:
            raise ValueError("invalid UVM geometry")
        self._events = events
        self._clock = clock
        self.page_size = int(page_size)
        self.n_pages = -(-int(managed_bytes) // self.page_size) if managed_bytes else 0
        self.capacity_pages = int(capacity_bytes) // self.page_size
        self._resident = np.zeros(self.n_pages, dtype=bool)
        self._pinned = np.zeros(self.n_pages, dtype=bool)
        # LRU rank: virtual tick of last touch; never-touched = -1.
        self._last_touch = np.full(self.n_pages, -1, dtype=np.int64)
        self._tick = 0
        self._n_resident = 0
        self._n_pinned = 0

    # ------------------------------------------------------------ properties
    @property
    def resident_pages(self) -> int:
        return self._n_resident

    @property
    def resident_bytes(self) -> int:
        return self._n_resident * self.page_size

    @property
    def pinned_pages(self) -> int:
        """Number of pages pinned via :meth:`advise_pin` (never evicted)."""
        return self._n_pinned

    def is_resident(self, pages: np.ndarray) -> np.ndarray:
        return self._resident[pages]

    def pages_of_byte_range(self, lo: int, hi: int) -> np.ndarray:
        """Page ids covering the byte range ``[lo, hi)``."""
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return np.arange(lo // self.page_size, -(-hi // self.page_size), dtype=np.int64)

    def _emit(self, kind: str, label: str,
              counters: Optional[Mapping[str, int]] = None,
              extra: Tuple[Tuple[str, float], ...] = ()) -> None:
        """Leave an instant marker in the event log (no lane time)."""
        if self._events is None or not (counters or extra):
            return
        t = self._clock.now if self._clock is not None else 0.0
        self._events.marker(kind, label, t, counters=counters, extra=extra)

    # -------------------------------------------------------------- actions
    def advise_pin(self, pages: np.ndarray) -> int:
        """Pin pages to the device (cudaMemAdvise); returns bytes prefetched.

        Pinning more pages than capacity raises — the driver would fail the
        advice the same way.
        """
        pages = _sorted_unique(pages)
        if pages.size and (pages.min() < 0 or pages.max() >= self.n_pages):
            raise IndexError("page id out of range")
        new = pages[~self._resident[pages]]
        newly_pinned = int(np.count_nonzero(~self._pinned[pages]))
        if self._n_pinned + newly_pinned > self.capacity_pages:
            raise ValueError("cannot pin more pages than device capacity")
        # Pin before choosing victims: a resident page named in this call
        # must not be evicted to make room for the others.
        self._pinned[pages] = True
        self._n_pinned += newly_pinned
        if self._n_resident + new.size > self.capacity_pages:
            self._evict(self._n_resident + new.size - self.capacity_pages)
        self._resident[new] = True
        self._n_resident += new.size
        self._tick += 1
        self._last_touch[pages] = self._tick
        self._emit("uvm-pin", "memadvise",
                   extra=(("pages_pinned", float(pages.size)),
                          ("bytes_prefetched", float(new.size * self.page_size))))
        return int(new.size) * self.page_size

    def touch(self, pages: np.ndarray) -> UVMAccess:
        """Access a set of pages from a kernel; fault in what is missing.

        ``pages`` may contain duplicates, in any order; residency/faulting
        is per unique page.  Returns fault/migration counts for the cost
        model.
        """
        pages = _sorted_unique(pages)
        if pages.size == 0:
            return UVMAccess(0, 0, 0, 0)
        if pages.min() < 0 or pages.max() >= self.n_pages:
            raise IndexError("page id out of range")
        unpinned_touched = pages[~self._pinned[pages]]
        free_after_pins = self.capacity_pages - self._n_pinned
        if unpinned_touched.size > free_after_pins:
            # The scan's working set exceeds what LRU can hold: the classic
            # cyclic-scan-vs-LRU pathology (§2, Fig. 1) — every unpinned
            # page is evicted before its reuse, so every unpinned touched
            # page faults, every iteration.  Only the scan's tail survives.
            missing = unpinned_touched
            n_faults = int(missing.size)
            old_unpinned = self._resident & ~self._pinned
            n_evicted = int(np.count_nonzero(old_unpinned)) + n_faults - free_after_pins
            self._resident[old_unpinned] = False
            survivors = missing[missing.size - free_after_pins :]
            self._resident[survivors] = True
            self._n_resident = int(np.count_nonzero(self._resident))
            self._tick += 1
            self._last_touch[pages] = self._tick
            return self._record_access(UVMAccess(
                n_touched=int(pages.size),
                n_faults=n_faults,
                n_evicted=n_evicted,
                bytes_migrated=n_faults * self.page_size,
            ))
        missing = pages[~self._resident[pages]]
        n_faults = int(missing.size)
        n_evicted = 0
        if missing.size:
            overflow = self._n_resident + missing.size - self.capacity_pages
            if overflow > 0:
                n_evicted = self._evict(overflow)
            self._resident[missing] = True
            self._n_resident += missing.size
        self._tick += 1
        self._last_touch[pages] = self._tick
        return self._record_access(UVMAccess(
            n_touched=int(pages.size),
            n_faults=n_faults,
            n_evicted=n_evicted,
            bytes_migrated=n_faults * self.page_size,
        ))

    def _record_access(self, access: UVMAccess) -> UVMAccess:
        """Emit one ``uvm-fault`` marker carrying this access's deltas."""
        counters = {}
        if access.n_faults:
            counters["page_faults"] = access.n_faults
            counters["pages_migrated"] = access.n_faults
        if access.n_evicted:
            counters["pages_evicted"] = access.n_evicted
        self._emit("uvm-fault", "touch", counters=counters)
        return access

    def prefetch(self, pages: np.ndarray) -> int:
        """Migrate pages ahead of demand (the driver's sequential prefetcher).

        Unlike :meth:`touch`, prefetched pages incur no fault semantics —
        they ride along with ongoing migration.  Pages that would not fit
        (after evicting what LRU allows) are skipped rather than thrashed:
        the real prefetcher also backs off under pressure.  Returns bytes
        migrated.
        """
        pages = _sorted_unique(pages)
        if pages.size == 0:
            return 0
        if pages.min() < 0 or pages.max() >= self.n_pages:
            raise IndexError("page id out of range")
        missing = pages[~self._resident[pages]]
        if missing.size == 0:
            return 0
        overflow = self._n_resident + missing.size - self.capacity_pages
        if overflow > 0:
            evictable = int(np.count_nonzero(self._resident & ~self._pinned))
            k = min(overflow, evictable)
            if k > 0:
                self._evict(k)
            still_over = self._n_resident + missing.size - self.capacity_pages
            if still_over > 0:
                missing = missing[: missing.size - still_over]
        if missing.size == 0:
            return 0
        self._resident[missing] = True
        self._n_resident += missing.size
        self._tick += 1
        self._last_touch[missing] = self._tick
        self._emit("uvm-prefetch", "prefetch",
                   extra=(("pages", float(missing.size)),
                          ("bytes", float(missing.size * self.page_size))))
        return int(missing.size) * self.page_size

    def shrink_capacity(self, capacity_bytes: int) -> int:
        """Shrink the resident-pool capacity (chaos-mode capacity squeeze).

        Evicts LRU pages until the resident set fits the new capacity and
        records the evictions in the event log (one ``uvm-shrink`` marker
        carrying ``pages_evicted``).  Shrinking below the pinned set raises
        — pinned pages cannot be evicted, so the squeeze must be bounded by
        the caller.  Returns the number of pages evicted.
        """
        new_pages = int(capacity_bytes) // self.page_size
        if new_pages < 0:
            raise ValueError("capacity must be non-negative")
        pinned = self.pinned_pages
        if new_pages < pinned:
            raise ValueError(
                f"cannot shrink UVM pool to {new_pages} pages below "
                f"{pinned} pinned pages"
            )
        overflow = self._n_resident - new_pages
        evicted = self._evict(overflow) if overflow > 0 else 0
        self.capacity_pages = new_pages
        if evicted:
            self._emit("uvm-shrink", "squeeze",
                       counters={"pages_evicted": evicted},
                       extra=(("capacity_pages", float(new_pages)),))
        return evicted

    def _evict(self, k: int) -> int:
        """Evict the ``k`` least-recently-used unpinned resident pages."""
        candidates = self._resident & ~self._pinned
        idx = np.nonzero(candidates)[0]
        if idx.size < k:
            raise RuntimeError(
                f"UVM thrash deadlock: need to evict {k} pages but only "
                f"{idx.size} are unpinned"
            )
        order = np.argpartition(self._last_touch[idx], k - 1)[:k]
        victims = idx[order]
        self._resident[victims] = False
        self._n_resident -= victims.size
        return int(victims.size)
