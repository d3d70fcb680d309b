"""Engine registry — the one name → class map.

Every place that needs the engine names (the CLI's ``--engine`` choices,
``repro grid``, the grid runner) reads them from here.  An engine is its
class: the constructor's keyword parameters are the options it accepts, so
:func:`create` checks option names against them and a typo fails up front,
naming the engine and what it accepts.  A constructor taking ``**kwargs``
accepts anything.

:func:`register` / :func:`unregister` plant and remove extra engines (the
grid tests' fakes use them)::

    from repro.engines import registry

    registry.register("MyEngine", MyEngineClass)
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Dict, Optional, Tuple, Type

from repro.engines.base import Engine

__all__ = ["register", "unregister", "get", "create", "available", "options"]

#: Registration-ordered name → class map (insertion order is the paper's
#: presentation order: PT, UVM, Subway, Ascetic, then Hybrid and Sharded).
_CLASSES: Dict[str, Type[Engine]] = {}


def register(name: str, cls: Type[Engine]) -> None:
    """Register engine class ``cls`` under the new name ``name``."""
    if not name:
        raise ValueError("engine name must be non-empty")
    if not callable(cls):
        raise TypeError(f"engine class for {name!r} must be callable")
    if name in _CLASSES:
        raise ValueError(f"engine {name!r} is already registered")
    _CLASSES[name] = cls


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (raises ``KeyError`` if absent)."""
    get(name)
    del _CLASSES[name]


def get(name: str) -> Type[Engine]:
    """The class registered under ``name``."""
    try:
        return _CLASSES[name]
    except KeyError:
        known = ", ".join(available()) or "<none>"
        raise KeyError(f"unknown engine {name!r}; registered engines: {known}") from None


@lru_cache(maxsize=None)
def _keywords(cls) -> Optional[Tuple[str, ...]]:
    """``cls``'s constructor keywords in order; ``None`` for ``**kwargs``.

    Cached per class: the serve pool builds an engine on every pool miss.
    """
    params = inspect.signature(cls).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return tuple(p.name for p in params
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))


def options(name: str) -> Optional[Tuple[str, ...]]:
    """The options engine ``name`` takes beyond :class:`Engine`'s own.

    In constructor order; ``None`` when its constructor takes ``**kwargs``.
    """
    accepted = _keywords(get(name))
    if accepted is None:
        return None
    return tuple(k for k in accepted if k not in _keywords(Engine))


def create(name: str, **opts) -> Engine:
    """Instantiate the engine registered under ``name`` with ``opts``.

    An option the constructor does not take raises ``TypeError`` here,
    naming the engine and the options it accepts.
    """
    cls = get(name)
    accepted = _keywords(cls)
    if accepted is not None:
        unknown = sorted(set(opts) - set(accepted))
        if unknown:
            raise TypeError(
                f"engine {name!r} does not accept option(s) "
                f"{', '.join(map(repr, unknown))}; accepted options: "
                f"{', '.join(accepted)}"
            )
    return cls(**opts)


def available() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_CLASSES)


def _register_builtins() -> None:
    """Install the paper's four engines plus Hybrid and Sharded."""
    from repro.core.ascetic import AsceticEngine
    from repro.engines.hybrid import HybridEngine
    from repro.engines.partition_based import PartitionEngine
    from repro.engines.sharded import ShardedEngine
    from repro.engines.subway import SubwayEngine
    from repro.engines.uvm_engine import UVMEngine

    for cls in (PartitionEngine, UVMEngine, SubwayEngine, AsceticEngine,
                HybridEngine, ShardedEngine):
        _CLASSES[cls.name] = cls


_register_builtins()
