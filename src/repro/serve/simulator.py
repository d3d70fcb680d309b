"""What a load test is made of: its config and the single-server entry
point.

:class:`ServeConfig` is the workload / queue / scheduler / pool half of
every load test's input, and :func:`run_load_test` runs a config on one
device.  A request's graph view, GPU spec and (single-request) program
come from the harness's :func:`~repro.harness.experiments.make_workload`,
whose cache hands every load test — and every grid cell — the same graph
object per (dataset, scale, variant), which warm reuse depends on.  There
is one discrete-event loop and it lives in :mod:`repro.serve.fleet`; a
single server is a fleet of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from typing import Any, Dict, Optional, Tuple

from repro.gpusim.fabric import FabricSpec
from repro.harness.experiments import BENCH_SCALE
from repro.serve.request import Request

__all__ = ["ServeConfig", "run_load_test", "quick_config"]


def finite(value) -> bool:
    """Whether ``value`` is a real number other than ±inf and NaN (a bool
    is not a number here)."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class ServeConfig:
    """The workload / queue / scheduler / pool half of a load test's input
    (:class:`~repro.serve.fleet.FleetConfig` adds the devices)."""

    seed: int = 0
    n_requests: int = 24
    #: Offered load, requests per simulated second (open loop).
    arrival_rate: float = 1.0
    graphs: Tuple[str, ...] = ("GS",)
    algorithms: Tuple[str, ...] = ("BFS", "CC")
    tenants: Tuple[str, ...] = ("t0", "t1")
    priorities: Tuple[int, ...] = (0,)
    #: Per-request deadline budget in seconds after arrival (None = none).
    deadline: Optional[float] = None
    #: Explicit sources per batchable request (>1 enables multi-source).
    multi_source: int = 1
    engine: str = "Ascetic"
    scale: float = BENCH_SCALE
    queue_capacity: int = 16
    queue_policy: str = "reject"
    scheduler: str = "affinity"
    max_batch: int = 1
    #: Max seconds the dispatcher holds the free server for a fuller batch.
    batch_wait: float = 0.0
    max_engines: int = 2
    aging_seconds: float = 60.0

    def __post_init__(self) -> None:
        for key in ("max_batch", "max_engines"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, Integral) \
                    or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if not (finite(self.batch_wait) and self.batch_wait >= 0):
            raise ValueError(
                f"batch_wait must be finite and >= 0, got {self.batch_wait!r}")
        if not (finite(self.aging_seconds) and self.aging_seconds > 0):
            raise ValueError(
                f"aging_seconds must be finite and > 0, got {self.aging_seconds!r}")

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def run_load_test(config: ServeConfig,
                  requests: Optional[Tuple[Request, ...]] = None):
    """Run one seeded single-server load test: a fleet of one device.

    Pure function of ``(config, requests)``; returns the
    :class:`~repro.serve.fleet.FleetResult` of the one discrete-event loop
    (:func:`~repro.serve.fleet.run_fleet_test`) over a one-device fabric,
    never sharding, with no fault plan.  ``requests`` overrides the
    generated trace (tests build hand-crafted traces; the CLI always
    generates from the config's seed).
    """
    # Imported here because fleet.py builds on this module's ServeConfig.
    from repro.serve.fleet import FleetConfig, run_fleet_test

    return run_fleet_test(
        FleetConfig(serve=config, fabric=FabricSpec(n_devices=1)), requests)


def quick_config(seed: int = 0) -> ServeConfig:
    """The tiny seeded load test behind ``repro serve --quick`` and CI.

    Two affinity keys on one small dataset — BFS/CC share the plain CSR,
    SSSP owns the weighted view — so the affinity scheduler, the engine
    pool, batching, deadlines, and shedding all get exercised in a run
    that stays under a minute of wall clock.
    """
    return ServeConfig(
        seed=seed,
        n_requests=12,
        arrival_rate=0.4,
        graphs=("GS",),
        algorithms=("BFS", "CC", "SSSP"),
        tenants=("acme", "beta"),
        priorities=(0, 1),
        deadline=45.0,
        multi_source=2,
        engine="Ascetic",
        scale=5e-5,
        queue_capacity=8,
        queue_policy="deadline",
        scheduler="affinity",
        max_batch=2,
        batch_wait=0.25,
        max_engines=2,
        aging_seconds=10.0,
    )
