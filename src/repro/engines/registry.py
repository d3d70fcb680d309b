"""Engine registry — the single source of truth for engine names.

Every place that needs the engine names (the harness's
``run_all_engines``, the CLI's ``--engine`` choices, the grid runner)
derives them from this registry.  Third-party engines plug in with one
call::

    from repro.engines import registry

    registry.register("MyEngine", MyEngineClass, info=registry.EngineInfo(
        description="my transfer scheme",
        supported_engine_opts=("my_knob",),
    ))

A *factory* is any callable returning an :class:`~repro.engines.base.Engine`
when called with the engine's keyword options (``spec=``, ``data_scale=``,
plus engine-specific extras such as Ascetic's ``config=``).  Plain engine
classes qualify.

The optional :class:`EngineInfo` declares the engine's capabilities —
whether it can warm-start across serve requests, which extra constructor
options it accepts, and a one-line summary of its transfer policy — so the
CLI help and the serve catalog can introspect engines instead of
hard-coding their quirks.  When ``info`` carries a non-``None``
``supported_engine_opts``, :func:`create` validates option names against it
up front, turning a silent ``TypeError`` deep in a sweep into an immediate
error naming the engine and its accepted options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.engines.base import Engine

__all__ = [
    "COMMON_ENGINE_OPTS",
    "EngineInfo",
    "register",
    "unregister",
    "create",
    "get",
    "describe",
    "available",
    "is_registered",
]

#: Constructor options every :class:`~repro.engines.base.Engine` accepts;
#: engine-specific extras come on top via ``EngineInfo.supported_engine_opts``.
COMMON_ENGINE_OPTS: Tuple[str, ...] = (
    "spec",
    "max_iterations",
    "data_scale",
    "record_events",
    "fault_plan",
    "seed",
)


@dataclass(frozen=True)
class EngineInfo:
    """Capability metadata registered alongside an engine factory.

    ``supported_engine_opts`` lists the engine-*specific* constructor
    keywords (the :data:`COMMON_ENGINE_OPTS` are implied); ``None`` means
    "unknown — accept anything", which is what info-less registrations get
    so pre-existing third-party engines keep working unvalidated.
    """

    description: str = ""
    #: Can :meth:`~repro.engines.base.Engine.reset_for_request`
    #: ``(keep_static=True)`` carry device-resident state to the next run?
    supports_warm_start: bool = False
    #: Engine-specific constructor keywords beyond :data:`COMMON_ENGINE_OPTS`.
    supported_engine_opts: Optional[Tuple[str, ...]] = None
    #: One-line summary of the per-granule transfer policy (CLI help text).
    transfer_policy: str = ""

    @property
    def all_opts(self) -> Optional[Tuple[str, ...]]:
        """Every accepted constructor keyword, or ``None`` if unvalidated."""
        if self.supported_engine_opts is None:
            return None
        return COMMON_ENGINE_OPTS + tuple(self.supported_engine_opts)


#: Registration-ordered name → factory map (insertion order is the paper's
#: presentation order: PT, UVM, Subway, Ascetic, then Hybrid).
_FACTORIES: Dict[str, Callable[..., Engine]] = {}
#: name → :class:`EngineInfo` for factories registered with metadata.
_INFO: Dict[str, EngineInfo] = {}

#: Fallback for info-less registrations: unknown capabilities, no
#: option validation.
_DEFAULT_INFO = EngineInfo()


def register(name: str, factory: Callable[..., Engine], *,
             replace: bool = False, info: Optional[EngineInfo] = None) -> None:
    """Register ``factory`` under ``name``.

    Re-registering an existing name raises unless ``replace=True`` —
    silently shadowing a built-in engine is almost always a bug.  ``info``
    optionally attaches :class:`EngineInfo` capability metadata.
    """
    if not name:
        raise ValueError("engine name must be non-empty")
    if not callable(factory):
        raise TypeError(f"engine factory for {name!r} must be callable")
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"engine {name!r} is already registered (pass replace=True to override)"
        )
    _FACTORIES[name] = factory
    if info is not None:
        _INFO[name] = info
    else:
        _INFO.pop(name, None)


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (raises ``KeyError`` if absent)."""
    if name not in _FACTORIES:
        known = ", ".join(available()) or "<none>"
        raise KeyError(f"unknown engine {name!r}; registered engines: {known}")
    del _FACTORIES[name]
    _INFO.pop(name, None)


def get(name: str) -> Callable[..., Engine]:
    """The factory registered under ``name``."""
    try:
        return _FACTORIES[name]
    except KeyError:
        known = ", ".join(available()) or "<none>"
        raise KeyError(f"unknown engine {name!r}; registered engines: {known}") from None


def describe(name: str) -> EngineInfo:
    """The :class:`EngineInfo` for ``name`` (a default for info-less entries).

    Raises the same ``KeyError`` as :func:`get` for unknown names.
    """
    get(name)
    return _INFO.get(name, _DEFAULT_INFO)


def create(name: str, **opts) -> Engine:
    """Instantiate the engine registered under ``name`` with ``opts``.

    When the engine's :class:`EngineInfo` declares its option names, unknown
    keywords raise ``TypeError`` here — naming the engine and the accepted
    options — instead of an anonymous failure inside the factory.
    """
    factory = get(name)
    accepted = describe(name).all_opts
    if accepted is not None:
        unknown = sorted(set(opts) - set(accepted))
        if unknown:
            raise TypeError(
                f"engine {name!r} does not accept option(s) "
                f"{', '.join(map(repr, unknown))}; accepted options: "
                f"{', '.join(accepted)}"
            )
    return factory(**opts)


def available() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_FACTORIES)


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a factory."""
    return name in _FACTORIES


def _register_builtins() -> None:
    """Install the paper's four engines plus Hybrid and Sharded (idempotent)."""
    from repro.core.ascetic import AsceticEngine
    from repro.engines.hybrid import HybridEngine
    from repro.engines.partition_based import PartitionEngine
    from repro.engines.sharded import ShardedEngine
    from repro.engines.subway import SubwayEngine
    from repro.engines.uvm_engine import UVMEngine

    builtins = (
        ("PT", PartitionEngine, EngineInfo(
            description="partition-based baseline: ships touched partitions "
                        "whole every iteration (GraphReduce-style)",
            supports_warm_start=False,
            supported_engine_opts=("double_buffer", "pinned_partitions"),
            transfer_policy="pinned prefix resident, rest bulk-migrated per "
                            "iteration",
        )),
        ("UVM", UVMEngine, EngineInfo(
            description="unified-memory baseline: demand paging with LRU "
                        "eviction and memadvise pinning",
            supports_warm_start=False,
            supported_engine_opts=("pin_fraction",),
            transfer_policy="every touched page direct via the unified "
                            "address space",
        )),
        ("Subway", SubwayEngine, EngineInfo(
            description="subgraph-gathering baseline: CPU gathers the active "
                        "subgraph each iteration (EuroSys '20)",
            supports_warm_start=False,
            supported_engine_opts=("pipelined",),
            transfer_policy="every gather round CPU-gathered",
        )),
        ("Ascetic", AsceticEngine, EngineInfo(
            description="the paper's engine: Static Region + overlapped "
                        "on-demand gathering + chunk replacement",
            supports_warm_start=True,
            supported_engine_opts=("config",),
            transfer_policy="resident chunks compute in place, rest "
                            "CPU-gathered",
        )),
        ("Hybrid", HybridEngine, EngineInfo(
            description="hotness-driven hybrid: migrate hot chunks, gather "
                        "dense footprints, zero-copy cold sparse ones",
            supports_warm_start=True,
            supported_engine_opts=("chunk_bytes", "cache_fraction",
                                   "reuse_horizon"),
            transfer_policy="per-chunk migrate/gather/direct from measured "
                            "hotness and needed-vs-moved bytes (HybridPolicy)",
        )),
        ("Sharded", ShardedEngine, EngineInfo(
            description="multi-device meta-engine: equal-edge shards on a "
                        "fabric of N devices, one inner engine per device, "
                        "bulk-synchronous delta exchange (docs/fleet.md)",
            supports_warm_start=False,
            supported_engine_opts=("fabric", "devices", "inner"),
            transfer_policy="per shard, the inner engine's policy; deltas "
                            "exchanged over inter-device links per superstep",
        )),
    )
    for name, cls, info in builtins:
        if name not in _FACTORIES:
            register(name, cls, info=info)


_register_builtins()
