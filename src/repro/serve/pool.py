"""Per-graph engine pool: the cross-request warm-state store.

The pool keeps one engine instance per affinity key (*graph id, variant*
— see :func:`repro.serve.request.engine_key`), LRU-bounded by
``max_engines`` (each pooled Ascetic engine pins a Static Region's worth
of simulated device memory, so the bound models how many warm graphs the
fleet can afford to keep resident).

A pool *hit* re-arms the cached engine with
:meth:`~repro.engines.base.Engine.reset_for_request` ``(keep_static=True)``
— for a :class:`~repro.core.manager.RegionEngine` (Ascetic, Hybrid) that
hands the previous run's Static Region to the next ``run``, which skips
the fill phase (``static_warm_bytes``) and tops up only what a capacity
squeeze or repartition dropped (``static_refill_bytes``); every other
engine keeps nothing across the re-arm.  :meth:`EnginePool.fold_result`
folds those per-run counters into :class:`PoolStats`, which is how the
acceptance test *proves* fills were skipped rather than inferring it from
latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Tuple

from repro.engines.base import Engine, RunResult

__all__ = ["EnginePool", "PoolStats"]


@dataclass
class PoolStats:
    """Warm-reuse ledger folded from pool traffic and run extras."""

    #: Dispatches that found a pooled engine for their key.
    hits: int = 0
    #: Dispatches that built a fresh engine.
    misses: int = 0
    #: Pooled engines discarded to respect ``max_engines``.
    evictions: int = 0
    #: Runs whose engine actually took the warm-start path
    #: (``extra["warm_start"]``; a hit on a non-warm engine stays 0).
    warm_runs: int = 0
    #: Paper-scale fill bytes *not* transferred thanks to warm regions.
    skipped_fill_bytes: float = 0.0
    #: Paper-scale bytes re-transferred to top up partially-invalidated
    #: warm regions (squeezes, capacity changes).
    refill_bytes: float = 0.0
    #: Warm chunks dropped while reconciling a region to a new capacity.
    invalidated_chunks: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "warm_runs": self.warm_runs,
            "skipped_fill_bytes": self.skipped_fill_bytes,
            "refill_bytes": self.refill_bytes,
            "invalidated_chunks": self.invalidated_chunks,
        }

    def merge(self, other: "PoolStats") -> "PoolStats":
        """Accumulate ``other`` into this ledger (fleet per-device rollup)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.warm_runs += other.warm_runs
        self.skipped_fill_bytes += other.skipped_fill_bytes
        self.refill_bytes += other.refill_bytes
        self.invalidated_chunks += other.invalidated_chunks
        return self


class EnginePool:
    """LRU-bounded map of affinity key → reusable engine instance."""

    def __init__(self, max_engines: int = 4) -> None:
        if max_engines < 1:
            raise ValueError("max_engines must be >= 1")
        self.max_engines = int(max_engines)
        self._engines: "OrderedDict[Hashable, Engine]" = OrderedDict()
        self.stats = PoolStats()

    def __len__(self) -> int:
        return len(self._engines)

    def warm_keys(self) -> Tuple[Hashable, ...]:
        """Keys with a pooled (warm-capable) engine, LRU → MRU order."""
        return tuple(self._engines)

    def acquire(self, key: Hashable, factory: Callable[[], Engine]) -> Tuple[Engine, bool]:
        """The engine for ``key``, building (and evicting) as needed.

        Returns ``(engine, warm)``; on a hit the engine is re-armed for
        warm start before being handed back.
        """
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            engine.reset_for_request(keep_static=True)
            self.stats.hits += 1
            return engine, True
        while len(self._engines) >= self.max_engines:
            self._engines.popitem(last=False)
            self.stats.evictions += 1
        engine = factory()
        self._engines[key] = engine
        self.stats.misses += 1
        return engine, False

    def fold_result(self, result: RunResult) -> None:
        """Accumulate one run's warm-start counters into :attr:`stats`."""
        extra = result.extra
        if extra.get("warm_start", 0.0):
            self.stats.warm_runs += 1
        self.stats.skipped_fill_bytes += extra.get("static_warm_bytes", 0.0)
        self.stats.refill_bytes += extra.get("static_refill_bytes", 0.0)
        self.stats.invalidated_chunks += extra.get("warm_invalidated_chunks", 0.0)
