"""A multi-device fabric: N simulated GPUs on one clock and one event log.

The rest of :mod:`repro.gpusim` models *one* device + host pair.  A
:class:`Fabric` instantiates N :class:`~repro.gpusim.device.SimulatedGPU`
devices that share a single :class:`~repro.gpusim.clock.VirtualClock` and a
single :class:`~repro.gpusim.events.EventLog`, plus typed inter-device
links so a sharded engine (:mod:`repro.engines.sharded`) and the serve-layer
fleet (:mod:`repro.serve.fleet`) can charge cross-device traffic to the same
cost model as everything else.

Topology comes from a :class:`FabricSpec` — a frozen, picklable value object
naming the device count and the link class, e.g.
``FabricSpec(n_devices=4, topology="nvlink")``.  Every device is a copy of
the base :class:`~repro.gpusim.device.GPUSpec` the fabric is built on.

Two link classes are modelled (§"typed links"):

* ``pcie`` — peer transfers are routed through the host/root complex: two
  PCIe hops, so half the bulk bandwidth and twice the latency of the
  host↔device link.
* ``nvlink`` — a direct point-to-point NVLink-class connection with its own
  (much higher) bandwidth and lower latency.

Every device's lanes carry its ``device_id``, so per-device metrics, idle
attribution, and the Chrome-trace export (one "process" per device) are all
folds over the one shared log — and a fabric of one device degenerates to
the classic single-device model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.clock import VirtualClock
from repro.gpusim.device import DeviceFacade, GPUSpec, SimulatedGPU
from repro.gpusim.events import EventColumns, EventLog
from repro.gpusim.pcie import PCIeLink
from repro.gpusim.stream import Lane

__all__ = [
    "LinkSpec",
    "FabricSpec",
    "Fabric",
    "fold_exchange_bytes",
    "NVLINK_BANDWIDTH",
    "NVLINK_LATENCY",
    "TOPOLOGIES",
]

#: NVLink-class per-direction link bandwidth (bytes/s).  Approximates one
#: NVLink 2.0 brick pair (~46 GB/s effective) — an order of magnitude above
#: the PCIe 3.0 x16 host link the paper's testbed uses.
NVLINK_BANDWIDTH = 46.0e9
#: NVLink-class per-transfer latency (seconds): no root-complex traversal.
NVLINK_LATENCY = 5.0e-6

#: Recognized fabric topologies.
TOPOLOGIES = ("pcie", "nvlink")


@dataclass(frozen=True)
class LinkSpec:
    """One typed device↔device link of the fabric."""

    kind: str  # "pcie" | "nvlink"
    bandwidth: float  # bytes / second
    latency: float  # seconds per transfer

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every one of them.
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("link bandwidth must be positive and finite")
        if not 0 <= self.latency < math.inf:
            raise ValueError("link latency must be non-negative and finite")

    @classmethod
    def peer(cls, topology: str, host: PCIeLink) -> "LinkSpec":
        """The link between two devices whose host link is ``host``."""
        if topology == "nvlink":
            return cls("nvlink", NVLINK_BANDWIDTH, NVLINK_LATENCY)
        # Peer traffic over PCIe bounces through the root complex: two hops
        # share the host link, so half bandwidth, double latency.
        return cls("pcie", host.bandwidth / 2, host.latency * 2)

    def copy_cost(self, nbytes):
        """``(fixed, variable)`` seconds to move ``nbytes`` over this link."""
        return self.latency, nbytes / self.bandwidth


@dataclass(frozen=True)
class FabricSpec:
    """The serializable fabric description (rides through serve configs)."""

    n_devices: int = 1
    topology: str = "pcie"

    def __post_init__(self) -> None:
        if isinstance(self.n_devices, bool) \
                or not isinstance(self.n_devices, Integral) \
                or self.n_devices < 1:
            raise ValueError(
                f"n_devices must be an integer >= 1, got {self.n_devices!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form."""
        return {"n_devices": self.n_devices, "topology": self.topology}


class Fabric(DeviceFacade):
    """N simulated devices sharing one virtual clock and one event log.

    The fabric owns one extra lane per device — its *link port* — on which
    inter-device transfers are serialized (a device has one NVLink/PCIe
    egress engine, just as it has one copy engine).  Exchange traffic is
    charged at paper scale exactly like every other transfer and emitted as
    ``d2d`` events, so it shows up in phase breakdowns (the sharded
    engine's ``Texchange``), traces, and the serve layer's per-device
    accounting.
    """

    def __init__(self, spec: FabricSpec, base: Optional[GPUSpec] = None,
                 charge_scale: float = 1.0, record_events: bool = False,
                 faults=None) -> None:
        if charge_scale <= 0:
            raise ValueError("charge_scale must be positive")
        self.spec = spec
        base = base or GPUSpec()
        #: The one link every pair of devices uses (each device reaches the
        #: host through its own :class:`GPUSpec`'s PCIe link).
        self.device_link = LinkSpec.peer(spec.topology, base.pcie)
        self.charge_scale = charge_scale
        self.clock = VirtualClock()
        self.events = EventLog(record=record_events)
        self.faults = faults
        ids = range(spec.n_devices)
        self.devices: List[SimulatedGPU] = [
            SimulatedGPU(base, charge_scale=charge_scale, faults=faults,
                         device_id=d, clock=self.clock, events=self.events)
            for d in ids
        ]
        #: Per-device link port: the serially-ordered egress engine for
        #: device↔device traffic.
        self.links: List[Lane] = [
            Lane("link", self.clock, log=self.events, device=d) for d in ids
        ]
        #: Total paper-scale device↔device bytes moved (incremental; the
        #: recorded-mode equivalent is :func:`fold_exchange_bytes`).
        self.exchange_bytes: int = 0
        self._exchange_by_device: Dict[int, int] = dict.fromkeys(ids, 0)
        #: Per-device health (``"up"`` / ``"stalled"`` / ``"down"``),
        #: advanced by :meth:`check_health` against the fault plan's
        #: device faults.  Without an injector every device stays up.
        self.health: Dict[int, str] = dict.fromkeys(ids, "up")

    # -------------------------------------------------------------- queries
    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def exchange_bytes_of(self, device_id: int) -> int:
        """Paper-scale bytes device ``device_id`` has sent over its port."""
        return self._exchange_by_device[device_id]

    # --------------------------------------------------------------- health
    def check_health(self, t: Optional[float] = None) -> List[Tuple[int, str]]:
        """Advance per-device health to time ``t``; return the transitions.

        A pure plan lookup through the injector (device faults draw no
        randomness).  Each transition emits a typed marker carrying the
        device id — ``device-down`` on entering ``stalled`` or ``down``,
        ``device-up`` on recovering from a stall — so failures render in
        each device's Chrome-trace process.  Health is sampled where the
        controlling engine calls this (the sharded engine's superstep
        barrier), so fault times resolve at barrier granularity.
        """
        if self.faults is None or not self.faults.plan.device_faults:
            return []
        now = self.clock.now if t is None else t
        transitions: List[Tuple[int, str]] = []
        for d in sorted(self.health):
            old = self.health[d]
            if old == "down":
                continue  # permanent: no way back up
            new = self.faults.device_state(d, now)
            if new == old:
                continue
            self.health[d] = new
            if new == "down":
                self.faults.note_device_down()
                self.events.marker("device-down", f"dev{d}", now, device=d,
                                   extra=(("device", float(d)),))
            elif new == "stalled":
                self.faults.note_device_stall()
                self.events.marker("device-down", f"dev{d}:stall", now,
                                   device=d,
                                   extra=(("device", float(d)),
                                          ("stall", 1.0)))
            else:
                self.events.marker("device-up", f"dev{d}", now, device=d,
                                   extra=(("device", float(d)),))
            transitions.append((d, new))
        return transitions

    # ------------------------------------------------------------ transfers
    def transfer(self, src: int, dst: int, nbytes: int,
                 label: str = "exchange", after: float = 0.0) -> float:
        """Move ``nbytes`` (scaled) from device ``src`` to ``dst``.

        Occupies the *sender's* link port for the link's transfer time
        (receive DMA overlaps — one event, no double charging) and returns
        the completion time for the receiver to depend on.  Zero-byte
        transfers are short-circuited like every other empty op.
        """
        if src == dst:
            raise ValueError(f"no link from device {src} to itself")
        if nbytes <= 0:
            return self.links[src].submit(0.0, label, after=after)
        charged = int(round(nbytes * self.charge_scale))
        fixed, variable = self.device_link.copy_cost(charged)
        dur = fixed + variable
        if self.faults is not None and self.faults.plan.peer_degradations:
            t0 = max(self.clock.now, self.links[src].busy_until, after)
            factor, fresh = self.faults.peer_link_state(t0)
            for i, w in fresh:
                self.events.marker(
                    "peer-degrade", f"window{i}", t0,
                    extra=(("factor", float(w.factor)),
                           ("until", float(w.end))))
            if factor < 1.0:
                # Only the streaming part slows; latency is unaffected,
                # like the host-link degradation in Lane.submit_transfer.
                dur = fixed + variable / factor
        self.exchange_bytes += charged
        self._exchange_by_device[src] += charged
        return self.links[src].submit(
            dur, label, after=after, kind="d2d",
            extra=(("bytes", float(charged)), ("dst", float(dst))),
        )

    def all_exchange(self, per_pair_bytes, label: str = "exchange") -> float:
        """One all-to-all exchange round; returns its completion time.

        ``per_pair_bytes[(src, dst)]`` gives the scaled payload for each
        ordered pair.  Pairs are issued in sorted order (deterministic);
        each sender's port serializes its own sends, different senders
        overlap.  The returned time is the max completion across pairs.
        """
        done = self.clock.now
        for (src, dst) in sorted(per_pair_bytes):
            end = self.transfer(src, dst, per_pair_bytes[(src, dst)],
                                label=label)
            done = max(done, end)
        return done

    # ----------------------------------------------------------------- sync
    def sync_all(self) -> float:
        """Wait for every device lane and link port to drain."""
        t = max(
            [l.busy_until for l in self.links]
            + [max(g.gpu.busy_until, g.copy.busy_until,
                   g.cpu.busy_until, g.direct.busy_until)
               for g in self.devices],
        )
        return self.clock.advance_to(t)

    def sync(self) -> float:
        """The facade's name for :meth:`sync_all`."""
        return self.sync_all()

    def gpu_idle_fraction(self, device_id: Optional[int] = None) -> float:
        """Idle share of one device's compute lane on the shared timeline;
        without an id, the mean over every device."""
        if device_id is None:
            return float(np.mean([g.gpu_idle_fraction() for g in self.devices]))
        return self.devices[device_id].gpu_idle_fraction()


def fold_exchange_bytes(events: EventColumns) -> Dict[int, int]:
    """Per-source-device exchange bytes from a recorded fabric log.

    A pure fold over ``d2d`` rows (payload rides in ``extra`` — exchange
    traffic deliberately touches no :class:`~repro.gpusim.metrics.Metrics`
    counter, keeping single-device folds untouched).
    """
    kind = np.array(events.kind)
    d2d = np.flatnonzero(kind == events.kinds.ids.get("d2d", -1)).tolist()
    out: Dict[int, int] = {}
    for (_, device), *_, xkeys, xvals in events.rows(d2d):
        if device is None:
            continue
        nbytes = int(dict(zip(xkeys, xvals)).get("bytes", 0.0))
        out[device] = out.get(device, 0) + nbytes
    return out
