"""Deterministic fault injection (chaos mode) for the simulated platform.

The paper's whole design is about surviving a hostile memory hierarchy —
Ascetic's Eq. 3 repartition exists because the on-demand region can
overflow mid-iteration — yet a simulator left to itself only exercises the
happy path.  This module supplies the hostile part on purpose:

* :class:`FaultPlan` — a frozen, serializable description of *what* can go
  wrong: transient PCIe transfer failures, corrupted (CRC-mismatch)
  payloads, link-degradation windows, named allocation failures, capacity
  squeezes, and kernel slowdown/abort events;
* :class:`FaultInjector` — the per-run oracle that answers "does this
  attempt fail?".  It is **fully deterministic**: no wall clock, no global
  RNG — all draws come from a generator seeded from ``(seed, plan)``, so
  the same :class:`~repro.runner.spec.RunSpec` seed and plan reproduce a
  bit-identical :class:`~repro.engines.base.RunResult`, event log
  included, across serial / parallel / checkpoint-resumed execution.

Faults *cost virtual time, never correctness*: a failed transfer is
retried with deterministic exponential backoff
(:meth:`~repro.gpusim.stream.Lane.submit_transfer`), a failed allocation
is retried or absorbed by shrinking (see the engines' ``_release_memory``
hooks), and every injected event leaves a typed marker in the
:class:`~repro.gpusim.events.EventLog` so chaos shows up in Chrome traces
and the ``retry`` idle bucket.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "LinkDegradation",
    "CapacitySqueeze",
    "DeviceFault",
    "FaultPlan",
    "FaultInjector",
    "TransferFaultError",
    "KernelFaultError",
    "standard_plan",
    "standard_fleet_plan",
]


class TransferFaultError(RuntimeError):
    """A transfer kept failing after the plan's retry budget was spent."""


class KernelFaultError(RuntimeError):
    """A kernel kept aborting after the plan's retry budget was spent."""


@dataclass(frozen=True)
class LinkDegradation:
    """A window of virtual time during which PCIe bandwidth is cut.

    While ``start <= t < end`` the *variable* (bytes-over-bandwidth) part
    of a transfer is divided by ``factor`` — latency is unaffected, like a
    real link renegotiating its width.
    """

    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad degradation window [{self.start}, {self.end})")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")

    def contains(self, t: float) -> bool:
        """Whether virtual time ``t`` falls inside the window."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class DeviceFault:
    """A whole-device fault: permanent loss or a transient stall window.

    ``end is None`` means the device fails *permanently* at virtual time
    ``start`` (it never comes back — the fleet layers must recover around
    it).  A finite ``end`` is a transient stall: the device is unavailable
    while ``start <= t < end`` and healthy again afterwards (clock
    throttling, a driver hiccup, an ECC scrub pause).
    """

    device: int
    start: float
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError("device must be non-negative")
        if self.start < 0:
            raise ValueError("fault start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"bad stall window [{self.start}, {self.end})")

    @property
    def permanent(self) -> bool:
        """Whether this is a device loss (no recovery) rather than a stall."""
        return self.end is None

    def state_at(self, t: float) -> str:
        """This fault's contribution to the device state at time ``t``."""
        if t < self.start:
            return "up"
        if self.end is None:
            return "down"
        return "stalled" if t < self.end else "up"


@dataclass(frozen=True)
class CapacitySqueeze:
    """External memory pressure: bytes taken away for a span of iterations.

    At ``start_iteration`` the engine must give up ``resolve(capacity)``
    bytes (another tenant's allocation, a driver reservation); at
    ``end_iteration`` (exclusive; ``None`` = never) the bytes come back.
    Size is ``nbytes`` absolute or ``fraction`` of device capacity,
    whichever is larger — fractions make one plan meaningful across
    dataset scales.
    """

    start_iteration: int
    end_iteration: Optional[int] = None
    nbytes: int = 0
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.start_iteration < 0:
            raise ValueError("start_iteration must be non-negative")
        if self.end_iteration is not None and self.end_iteration <= self.start_iteration:
            raise ValueError("end_iteration must exceed start_iteration")
        if self.nbytes < 0 or not 0.0 <= self.fraction < 1.0:
            raise ValueError("squeeze size must be non-negative (fraction < 1)")

    def resolve(self, capacity_bytes: int) -> int:
        """The squeeze size in bytes against a concrete device capacity."""
        return max(int(self.nbytes), int(self.fraction * capacity_bytes))


@dataclass(frozen=True)
class FaultPlan:
    """Everything that is allowed to go wrong in one run (frozen, hashable).

    Rates are per *attempt*; retried attempts re-roll.  ``alloc_failures``
    names :class:`~repro.gpusim.memory.DeviceMemory` allocations whose
    attempts fail transiently — a name listed *k* times fails its first
    *k* attempts (repeats are how tests drive the shrink ladder all the
    way to Ascetic's pure-on-demand floor).  Serialization
    (:meth:`to_dict` / :meth:`from_dict`) is canonical: the injector's RNG
    stream is seeded from it, and a :class:`~repro.runner.spec.RunSpec`
    embeds it in the cache key.
    """

    #: Probability an individual transfer attempt fails outright.
    transfer_fail_rate: float = 0.0
    #: Probability an attempt completes but fails its CRC (payload moved,
    #: time spent, data unusable — retried like a failure).
    transfer_corrupt_rate: float = 0.0
    #: Bandwidth-cut windows over virtual time.
    degradations: Tuple[LinkDegradation, ...] = ()
    #: Allocation names that fail transiently (repeats = repeat failures).
    alloc_failures: Tuple[str, ...] = ()
    #: Iteration-scoped capacity squeezes.
    squeezes: Tuple[CapacitySqueeze, ...] = ()
    #: Probability a kernel launch aborts partway (re-launched).
    kernel_abort_rate: float = 0.0
    #: Fraction of the kernel's duration burned before an abort is noticed.
    kernel_abort_fraction: float = 0.5
    #: Probability a kernel runs but slower (clock throttling).
    kernel_slowdown_rate: float = 0.0
    #: Duration multiplier for a slowed kernel.
    kernel_slowdown_factor: float = 1.5
    #: Extra attempts after a failed transfer/kernel before giving up.
    max_retries: int = 4
    #: First backoff delay in virtual seconds; doubles per extra attempt.
    backoff_base: float = 50.0e-6
    #: Multiplier between consecutive backoff delays.
    backoff_factor: float = 2.0
    #: Whole-device faults: permanent losses and transient stall windows.
    device_faults: Tuple[DeviceFault, ...] = ()
    #: Bandwidth-cut windows on the *peer* (device↔device) links — the
    #: NVLink/PCIe-bounce analogue of ``degradations`` (which cover the
    #: host link).
    peer_degradations: Tuple[LinkDegradation, ...] = ()

    def __post_init__(self) -> None:
        for name in ("transfer_fail_rate", "transfer_corrupt_rate",
                     "kernel_abort_rate", "kernel_slowdown_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.transfer_fail_rate + self.transfer_corrupt_rate >= 1.0:
            raise ValueError("combined transfer fault rates must stay below 1")
        if not 0.0 < self.kernel_abort_fraction <= 1.0:
            raise ValueError("kernel_abort_fraction must be in (0, 1]")
        if self.kernel_slowdown_factor < 1.0:
            raise ValueError("kernel_slowdown_factor must be >= 1")
        if (isinstance(self.max_retries, bool)
                or not isinstance(self.max_retries, Integral)
                or self.max_retries < 0):
            raise ValueError("max_retries must be a non-negative integer, "
                             f"got {self.max_retries!r}")
        if isinstance(self.alloc_failures, str) or not all(
                isinstance(n, str) for n in self.alloc_failures):
            raise ValueError("alloc_failures must be a list of allocation "
                             f"names, got {self.alloc_failures!r}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("invalid backoff parameters")
        object.__setattr__(self, "degradations", tuple(
            d if isinstance(d, LinkDegradation) else LinkDegradation(**d)
            for d in self.degradations))
        object.__setattr__(self, "squeezes", tuple(
            s if isinstance(s, CapacitySqueeze) else CapacitySqueeze(**s)
            for s in self.squeezes))
        object.__setattr__(self, "alloc_failures", tuple(self.alloc_failures))
        object.__setattr__(self, "device_faults", tuple(
            f if isinstance(f, DeviceFault) else DeviceFault(**f)
            for f in self.device_faults))
        object.__setattr__(self, "peer_degradations", tuple(
            d if isinstance(d, LinkDegradation) else LinkDegradation(**d)
            for d in self.peer_degradations))

    # --------------------------------------------------------------- views
    @property
    def is_null(self) -> bool:
        """Whether this plan can never inject anything."""
        return (self.transfer_fail_rate == 0.0
                and self.transfer_corrupt_rate == 0.0
                and not self.degradations
                and not self.alloc_failures
                and not self.squeezes
                and self.kernel_abort_rate == 0.0
                and self.kernel_slowdown_rate == 0.0
                and not self.device_faults
                and not self.peer_degradations)

    @property
    def affects_transfers(self) -> bool:
        """Whether transfer attempts need a random draw."""
        return self.transfer_fail_rate > 0.0 or self.transfer_corrupt_rate > 0.0

    @property
    def affects_kernels(self) -> bool:
        """Whether kernel launches need a random draw."""
        return self.kernel_abort_rate > 0.0 or self.kernel_slowdown_rate > 0.0

    @property
    def affects_devices(self) -> bool:
        """Whether whole devices can fail or stall (pure plan lookups —
        device faults draw no randomness, so plans without them behave
        bit-identically to the pre-device-fault schema)."""
        return bool(self.device_faults)

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return self.backoff_base * self.backoff_factor ** attempt

    def with_(self, **kwargs) -> "FaultPlan":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (cache keys, RunSpec embedding)."""
        out = asdict(self)
        out["degradations"] = [asdict(d) for d in self.degradations]
        out["squeezes"] = [asdict(s) for s in self.squeezes]
        out["alloc_failures"] = list(self.alloc_failures)
        # The device-scoped fields postdate the original plan schema: omit
        # them when empty so every pre-existing plan keeps its fingerprint —
        # and with it the injector's RNG stream and the chaos digests.
        if self.device_faults:
            out["device_faults"] = [asdict(f) for f in self.device_faults]
        else:
            del out["device_faults"]
        if self.peer_degradations:
            out["peer_degradations"] = [
                asdict(d) for d in self.peer_degradations
            ]
        else:
            del out["peer_degradations"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan written by :meth:`to_dict` (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown FaultPlan fields: {sorted(extra)}")
        return cls(**dict(data))

    def fingerprint(self) -> int:
        """A 32-bit content hash of the plan (part of the RNG seed)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return zlib.crc32(blob.encode("utf-8"))


def standard_plan() -> FaultPlan:
    """The standard chaos plan (``repro chaos``, the chaos-grid tests).

    Moderate everything: rare transfer failures/corruptions, two
    bandwidth-cut windows (one covering startup so every engine hits it),
    one transient allocation failure per engine's main buffer, a 20 %
    capacity squeeze over iterations 1–3, and rare kernel aborts.  Rates
    are far below the point where ``max_retries`` could be exhausted.
    """
    return FaultPlan(
        transfer_fail_rate=0.02,
        transfer_corrupt_rate=0.01,
        degradations=(
            LinkDegradation(start=0.0, end=0.02, factor=0.5),
            LinkDegradation(start=0.1, end=0.25, factor=0.25),
        ),
        alloc_failures=("static_region", "subgraph_buffer",
                        "subgraph_buffer_a", "partition_buffer",
                        "uvm_resident_pool"),
        squeezes=(CapacitySqueeze(start_iteration=1, end_iteration=4,
                                  fraction=0.2),),
        kernel_abort_rate=0.01,
        kernel_slowdown_rate=0.02,
        kernel_slowdown_factor=1.5,
    )


#: Peer-link bandwidth factor inside the standard fleet plan's window.
FLEET_DEGRADE_FACTOR = 0.25


def standard_fleet_plan(seed: int = 0, n_devices: int = 4, *,
                        down_at: float = 2.0,
                        degrade_start: float = 4.0,
                        degrade_end: float = 8.0) -> FaultPlan:
    """The standard fleet chaos plan: one device loss + one peer-link window.

    One device — picked deterministically from the seed — fails permanently
    at ``down_at``, and one peer-link degradation window cuts
    device↔device bandwidth to ``FLEET_DEGRADE_FACTOR`` over
    ``[degrade_start, degrade_end)``.  The default times sit on the serve
    clock (seconds-scale load tests); engine-level tests pass an explicit
    ``down_at`` inside their own (much shorter) sim horizon.

    Device faults draw no randomness, so runs that never consult the
    device state (single-device engines) are bit-identical under this plan
    to a fault-free run.
    """
    if n_devices < 2:
        raise ValueError(
            "standard_fleet_plan needs n_devices >= 2 (a 1-device fleet "
            "cannot survive losing its only device)"
        )
    victim = int(seed) % n_devices
    return FaultPlan(
        device_faults=(DeviceFault(device=victim, start=down_at),),
        peer_degradations=(
            LinkDegradation(start=degrade_start, end=degrade_end,
                            factor=FLEET_DEGRADE_FACTOR),
        ),
    )


class FaultInjector:
    """The per-run fault oracle: seeded, stateful, picklable.

    One injector is built per engine run from ``(plan, seed)``; the
    simulation is single-threaded, so the draw order — and with it every
    injected fault — is a pure function of those two inputs.  The whole
    object pickles inside iteration checkpoints, so a resumed run
    continues the RNG stream bit-exactly.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        # Seeding from (seed, plan-fingerprint) decorrelates plans that
        # share a seed without consulting anything non-deterministic.
        self._rng = np.random.default_rng(
            [self.seed & 0xFFFFFFFF, plan.fingerprint()]
        )
        #: How often each fault type actually fired (reported via
        #: ``RunResult.extra`` as ``fault_*``).
        self.counts: Dict[str, int] = {
            "transfer_fail": 0, "transfer_corrupt": 0,
            "kernel_abort": 0, "kernel_slow": 0,
            "alloc_fail": 0, "degradation_windows": 0,
            "device_down": 0, "device_stall": 0,
            "peer_degradation_windows": 0,
        }
        self._alloc_failed: Dict[str, int] = {}
        self._noted_windows: set = set()
        self._noted_peer_windows: set = set()

    # ----------------------------------------------------------- transfers
    def transfer_outcome(self) -> str:
        """One attempt's fate: ``"ok"`` / ``"fail"`` / ``"corrupt"``.

        Draws exactly one uniform when the plan has transfer rates and
        none otherwise, keeping the stream identical for plans that differ
        only in unrelated fault types.
        """
        plan = self.plan
        if not plan.affects_transfers:
            return "ok"
        u = float(self._rng.random())
        if u < plan.transfer_fail_rate:
            self.counts["transfer_fail"] += 1
            return "fail"
        if u < plan.transfer_fail_rate + plan.transfer_corrupt_rate:
            self.counts["transfer_corrupt"] += 1
            return "corrupt"
        return "ok"

    def link_state(self, t: float) -> Tuple[float, List[Tuple[int, LinkDegradation]]]:
        """``(bandwidth factor, windows first seen)`` at virtual time ``t``.

        The factor is the minimum over all windows containing ``t``;
        windows are reported once each so the caller can leave one marker
        per window in the event log.
        """
        factor = 1.0
        fresh: List[Tuple[int, LinkDegradation]] = []
        for i, w in enumerate(self.plan.degradations):
            if w.contains(t):
                factor = min(factor, w.factor)
                if i not in self._noted_windows:
                    self._noted_windows.add(i)
                    self.counts["degradation_windows"] += 1
                    fresh.append((i, w))
        return factor, fresh

    def peer_link_state(
        self, t: float
    ) -> Tuple[float, List[Tuple[int, LinkDegradation]]]:
        """:meth:`link_state` for the peer (device↔device) links.

        Folds over ``plan.peer_degradations`` with its own noted-window
        set, so host-link and peer-link windows are marked and counted
        independently.
        """
        factor = 1.0
        fresh: List[Tuple[int, LinkDegradation]] = []
        for i, w in enumerate(self.plan.peer_degradations):
            if w.contains(t):
                factor = min(factor, w.factor)
                if i not in self._noted_peer_windows:
                    self._noted_peer_windows.add(i)
                    self.counts["peer_degradation_windows"] += 1
                    fresh.append((i, w))
        return factor, fresh

    # ------------------------------------------------------------- devices
    # Device faults are *pure plan lookups* — no RNG draws — so a plan
    # without them leaves every draw-consuming stream untouched and the run
    # bit-identical to the pre-device-fault schema.
    def device_down_at(self, device: int) -> Optional[float]:
        """When ``device`` fails permanently, or ``None`` if it never does."""
        times = [f.start for f in self.plan.device_faults
                 if f.device == device and f.permanent]
        return min(times) if times else None

    def device_state(self, device: int, t: float) -> str:
        """``"up"`` / ``"stalled"`` / ``"down"`` for ``device`` at time ``t``."""
        state = "up"
        for f in self.plan.device_faults:
            if f.device != device:
                continue
            s = f.state_at(t)
            if s == "down":
                return "down"
            if s == "stalled":
                state = "stalled"
        return state

    def stall_end(self, device: int, t: float) -> float:
        """When every stall window covering ``(device, t)`` has ended."""
        return max([f.end for f in self.plan.device_faults
                    if f.device == device and not f.permanent
                    and f.start <= t < f.end], default=t)

    def note_device_down(self) -> None:
        """Count one observed permanent device loss."""
        self.counts["device_down"] += 1

    def note_device_stall(self) -> None:
        """Count one observed transient device stall."""
        self.counts["device_stall"] += 1

    # ------------------------------------------------------------- kernels
    def kernel_outcome(self) -> Tuple[str, float]:
        """One launch's fate: ``("ok"|"abort"|"slow", duration factor)``."""
        plan = self.plan
        if not plan.affects_kernels:
            return "ok", 1.0
        u = float(self._rng.random())
        if u < plan.kernel_abort_rate:
            self.counts["kernel_abort"] += 1
            return "abort", plan.kernel_abort_fraction
        if u < plan.kernel_abort_rate + plan.kernel_slowdown_rate:
            self.counts["kernel_slow"] += 1
            return "slow", plan.kernel_slowdown_factor
        return "ok", 1.0

    # --------------------------------------------------------- allocations
    def alloc_should_fail(self, name: str) -> bool:
        """Whether this attempt at allocation ``name`` fails (transiently).

        A name listed *k* times in ``plan.alloc_failures`` fails its
        first *k* attempts; failures are counted per name, so a retry of
        the same size eventually succeeds.
        """
        budget = self.plan.alloc_failures.count(name)
        if budget == 0:
            return False
        seen = self._alloc_failed.get(name, 0)
        if seen >= budget:
            return False
        self._alloc_failed[name] = seen + 1
        self.counts["alloc_fail"] += 1
        return True

    # ------------------------------------------------------------ squeezes
    def squeeze_starts(self, iteration: int) -> List[Tuple[int, CapacitySqueeze]]:
        """Squeezes that take effect at ``iteration`` (pure function of the plan)."""
        return [(i, s) for i, s in enumerate(self.plan.squeezes)
                if s.start_iteration == iteration]

    def squeeze_releases(self, iteration: int) -> List[Tuple[int, CapacitySqueeze]]:
        """Squeezes whose pressure ends at ``iteration``."""
        return [(i, s) for i, s in enumerate(self.plan.squeezes)
                if s.end_iteration == iteration]
