"""RunSpec — the immutable request object for one experiment cell.

A *cell* is one (dataset, algorithm, engine) point of the paper's grid,
plus everything that determines its outcome: the dataset down-scale, an
optional device-capacity override, and engine-specific options (the
engine's constructor keywords, e.g. Ascetic's ``forced_ratio``).  Because
engine runs are deterministic functions of these inputs, a ``RunSpec`` is
also a cache key: :meth:`RunSpec.cache_key` is a stable content hash that
the :mod:`repro.runner.cache` uses to replay unchanged cells across
sessions.

``RunSpec`` is frozen and hashable; option values must themselves be
hashable and serializable (JSON scalars, ``FaultPlan`` or ``FabricSpec``).
A malformed spec — from a constructor, a cache file or CLI JSON — raises
``ValueError`` naming the offending key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.gpusim.fabric import FabricSpec
from repro.gpusim.faults import FaultPlan

__all__ = ["RunSpec"]

#: Option values a spec can carry: JSON scalars plus the tagged types.
OptValue = Union[str, int, float, bool, None, FaultPlan, FabricSpec]

#: The option types that serialize under a ``__kind__`` tag.
_TAGGED = {cls.__name__: cls for cls in (FaultPlan, FabricSpec)}

#: The fields a serialized spec must carry.
_REQUIRED = ("dataset", "algorithm", "engine")


def _encode_opt(value: OptValue) -> Any:
    """One engine option → a JSON-able value (configs get a type tag)."""
    if isinstance(value, tuple(_TAGGED.values())):
        return {"__kind__": type(value).__name__, "fields": value.to_dict()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"engine option {value!r} is not serializable; use JSON scalars, "
        "FaultPlan, or FabricSpec"
    )


def _decode_opt(value: Any) -> OptValue:
    """Inverse of :func:`_encode_opt`."""
    if isinstance(value, dict):
        kind = _TAGGED.get(value.get("__kind__"))
        if kind is None:
            raise ValueError(f"unknown tagged engine option {value!r}")
        return kind.from_dict(value["fields"])
    return value


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (``True`` is an ``int`` in Python)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunSpec:
    """One grid cell, fully specified.

    Parameters
    ----------
    dataset:
        Table-3 abbreviation (``GS`` / ``FK`` / ``FS`` / ``UK``).
    algorithm:
        Vertex-program name (normalized to upper case).
    engine:
        A name registered in :mod:`repro.engines.registry`.
    scale:
        Dataset down-scale; ``None`` means the benchmark default
        (``repro.harness.experiments.BENCH_SCALE``), resolved eagerly so
        two specs meaning the same run hash identically.
    memory_bytes:
        Optional (scaled) device-capacity override.
    engine_opts:
        Extra keyword options for the engine's constructor, e.g.
        ``{"forced_ratio": 0.5, "adaptive": False}``.  Accepted as a mapping;
        stored as a sorted tuple of pairs so the spec stays hashable.
    seed:
        Run seed feeding the chaos-mode fault injector (inert without a
        ``fault_plan``).  The default ``0`` is omitted from serialization
        so pre-chaos cache keys stay valid.
    fault_plan:
        Optional :class:`~repro.gpusim.faults.FaultPlan` (or its
        ``to_dict`` mapping) injected deterministically into the run.
    """

    dataset: str
    algorithm: str
    engine: str
    scale: Optional[float] = None
    memory_bytes: Optional[int] = None
    engine_opts: Tuple[Tuple[str, OptValue], ...] = field(default=())
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        for name in _REQUIRED:
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"RunSpec {name} must be a string, "
                                 f"got {getattr(self, name)!r}")
        object.__setattr__(self, "algorithm", self.algorithm.upper())
        if self.scale is None:
            from repro.harness.experiments import BENCH_SCALE

            object.__setattr__(self, "scale", BENCH_SCALE)
        if (isinstance(self.scale, bool) or not isinstance(self.scale, Real)
                or not 0.0 < self.scale <= 1.0):
            raise ValueError(f"RunSpec scale must be in (0, 1], got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        if self.memory_bytes is not None and not (
                _is_int(self.memory_bytes) and self.memory_bytes > 0):
            raise ValueError("RunSpec memory_bytes must be a positive integer "
                             f"or None, got {self.memory_bytes!r}")
        if not _is_int(self.seed):
            raise ValueError(f"RunSpec seed must be an integer, got {self.seed!r}")
        opts = self.engine_opts
        if isinstance(opts, Mapping):
            opts = tuple(sorted(opts.items()))
        else:
            opts = tuple(sorted((str(k), v) for k, v in opts))
        for _, v in opts:
            _encode_opt(v)  # reject unserializable values eagerly
        object.__setattr__(self, "engine_opts", opts)
        object.__setattr__(self, "seed", int(self.seed))
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_dict(self.fault_plan))

    # ------------------------------------------------------------- views
    def engine_kwargs(self) -> Dict[str, OptValue]:
        """Keyword arguments to pass to the engine factory."""
        return dict(self.engine_opts)

    def label(self) -> str:
        """Short display form: ``dataset/algorithm/engine``."""
        return f"{self.dataset}/{self.algorithm}/{self.engine}"

    # ------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able mapping; inverse of :meth:`from_dict`.

        The chaos fields (``seed``/``fault_plan``) are included only when
        they differ from the fault-free defaults, so every pre-chaos spec
        keeps its exact serialized form — and with it its cache key.
        """
        out: Dict[str, Any] = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "scale": self.scale,
            "memory_bytes": self.memory_bytes,
            "engine_opts": {k: _encode_opt(v) for k, v in self.engine_opts},
        }
        if self.seed != 0:
            out["seed"] = self.seed
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec written by :meth:`to_dict` (a missing or unknown
        key raises ``ValueError`` naming it)."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"unknown RunSpec key(s): {', '.join(unknown)}")
        missing = [name for name in _REQUIRED if name not in data]
        if missing:
            raise ValueError(f"RunSpec key(s) missing: {', '.join(missing)}")
        plan = data.get("fault_plan")
        return cls(
            dataset=data["dataset"],
            algorithm=data["algorithm"],
            engine=data["engine"],
            scale=data.get("scale"),
            memory_bytes=data.get("memory_bytes"),
            engine_opts={
                k: _decode_opt(v) for k, v in (data.get("engine_opts") or {}).items()
            },
            seed=data.get("seed", 0),
            fault_plan=FaultPlan.from_dict(plan) if plan is not None else None,
        )

    def cache_key(self) -> str:
        """Stable content hash of this spec.

        Canonical JSON (sorted keys, exact float repr) hashed with
        SHA-256; the first 24 hex digits name the cache entry on disk.
        The repro *code version* is deliberately not part of the key —
        it is stored inside the cache payload instead, so a version
        mismatch can be counted as an invalidation rather than a
        silent miss (see :class:`repro.runner.cache.ResultCache`).
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
