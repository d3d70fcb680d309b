"""A multi-device fabric: N simulated GPUs on one clock and one event log.

The rest of :mod:`repro.gpusim` models *one* device + host pair.  A
:class:`Fabric` instantiates N :class:`~repro.gpusim.device.SimulatedGPU`
devices that share a single :class:`~repro.gpusim.clock.VirtualClock` and a
single :class:`~repro.gpusim.events.EventLog`, plus typed inter-device
links so a sharded engine (:mod:`repro.engines.sharded`) and the serve-layer
fleet (:mod:`repro.serve.fleet`) can charge cross-device traffic to the same
cost model as everything else.

Topology comes from a :class:`FabricSpec` — a frozen, picklable value object
that rides through :class:`~repro.runner.spec.RunSpec` engine options and
serve configs.  It can be built HeteroG-style from a plain dict::

    FabricSpec.from_dict({
        "device_mems": [13e9, 13e9, 10e9, 10e9],
        "bandwidth": ["10000", "747"],   # [device<->device, host<->device] MB/s
        "topology": "nvlink",
    })

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
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.gpusim.clock import VirtualClock
from repro.gpusim.device import DeviceFacade, GPUSpec, SimulatedGPU
from repro.gpusim.events import EventColumns, EventLog
from repro.gpusim.stream import Lane

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "FabricSpec",
    "FabricTopology",
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


def _integer(name: str, value: Any) -> int:
    """A dict's ``n_devices`` or ``device_mems`` entry: an integer, integral
    float (``13e9``) or integer string.

    A bool, a fraction, NaN, infinity or null is a ``ValueError`` naming the
    key, never a silently truncated fleet or a 1-byte device.
    """
    if not isinstance(value, bool):
        try:
            n = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or n == value:
                return n
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _link_number(name: str, value: Any) -> float:
    """A dict's bandwidth or latency: a finite number or numeric string.

    A bool, null, NaN or infinity is a ``ValueError`` naming the key, never
    a link of 1 B/s or one that no check can compare.
    """
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LinkSpec:
    """One typed link of the fabric (host↔device or device↔device)."""

    kind: str  # "pcie" | "nvlink"
    bandwidth: float  # bytes / second
    latency: float  # seconds per transfer

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every one of them.
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("link bandwidth must be positive and finite")
        if not 0 <= self.latency < math.inf:
            raise ValueError("link latency must be non-negative and finite")

    def copy_cost(self, nbytes):
        """``(fixed, variable)`` seconds to move ``nbytes`` over this link."""
        return self.latency, nbytes / self.bandwidth


@dataclass(frozen=True)
class DeviceSpec:
    """One device of the fabric: identity + its (scaled) memory capacity."""

    device_id: int
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")


@dataclass(frozen=True)
class FabricSpec:
    """The serializable fabric description (rides through RunSpec/serve).

    ``device_mems`` optionally gives each device its own memory cap (same
    units as the :class:`~repro.gpusim.device.GPUSpec` it is applied to);
    ``None`` replicates the base spec's capacity to every device.
    ``d2d_bandwidth`` / ``d2d_latency`` / ``h2d_bandwidth`` override the
    topology's defaults (useful for HeteroG-style configs that pin both
    numbers explicitly).
    """

    n_devices: int = 1
    topology: str = "pcie"
    device_mems: Optional[Tuple[int, ...]] = None
    d2d_bandwidth: Optional[float] = None
    d2d_latency: Optional[float] = None
    h2d_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.device_mems is not None:
            object.__setattr__(
                self, "device_mems",
                tuple(_integer("device_mems", m) for m in self.device_mems),
            )
            if len(self.device_mems) != self.n_devices:
                raise ValueError(
                    f"device_mems has {len(self.device_mems)} entries "
                    f"for {self.n_devices} devices"
                )
            if any(m <= 0 for m in self.device_mems):
                raise ValueError("device_mems entries must be positive")
        for name in ("d2d_bandwidth", "h2d_bandwidth"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        latency = self.d2d_latency
        if latency is not None and not 0 <= latency < math.inf:
            raise ValueError("d2d_latency must be non-negative and finite")

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON-able form (default-valued fields omitted)."""
        out: Dict[str, Any] = {"n_devices": self.n_devices,
                               "topology": self.topology}
        if self.device_mems is not None:
            out["device_mems"] = list(self.device_mems)
        for name in ("d2d_bandwidth", "d2d_latency", "h2d_bandwidth"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FabricSpec":
        """Build from a plain dict — native or HeteroG-style keys.

        HeteroG configs spell per-device memory as ``device_mems`` (floats)
        and both link speeds as ``bandwidth: [d2d, h2d]`` in MB/s (often as
        strings); both spellings are accepted and may be mixed with the
        native ``n_devices`` / ``d2d_bandwidth`` keys.
        """
        known = {"n_devices", "topology", "device_mems",
                 "d2d_bandwidth", "d2d_latency", "h2d_bandwidth", "bandwidth"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FabricSpec fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        mems = data.get("device_mems")
        if mems is not None:
            if not isinstance(mems, (list, tuple)):
                raise ValueError(
                    f"device_mems must be a list of byte counts, got {mems!r}")
            kwargs["device_mems"] = tuple(mems)
            kwargs["n_devices"] = _integer("n_devices",
                                           data.get("n_devices", len(mems)))
        elif "n_devices" in data:
            kwargs["n_devices"] = _integer("n_devices", data["n_devices"])
        if "topology" in data:
            kwargs["topology"] = str(data["topology"])
        # HeteroG's bandwidth pair, MB/s: [device<->device, host<->device].
        bw = data.get("bandwidth")
        if bw is not None:
            if not isinstance(bw, (list, tuple)) or len(bw) != 2:
                raise ValueError(
                    f"bandwidth must be [d2d, h2d] in MB/s, got {bw!r}")
            kwargs["d2d_bandwidth"] = _link_number("bandwidth", bw[0]) * 1e6
            kwargs["h2d_bandwidth"] = _link_number("bandwidth", bw[1]) * 1e6
        for name in ("d2d_bandwidth", "d2d_latency", "h2d_bandwidth"):
            if name in data:
                kwargs[name] = _link_number(name, data[name])
        return cls(**kwargs)

    # ------------------------------------------------------------- queries
    def memory_of(self, device_id: int, default: int) -> int:
        """Device ``device_id``'s memory cap (``default`` when unspecified)."""
        if self.device_mems is None:
            return default
        return self.device_mems[device_id]


class FabricTopology:
    """The resolved link graph of a fabric: devices + typed links.

    Built by resolving a :class:`FabricSpec` against the base
    :class:`~repro.gpusim.device.GPUSpec` (whose PCIe link supplies the
    host↔device defaults).  Symmetric and fully connected — every device
    pair gets one :class:`LinkSpec` of the topology's class.
    """

    def __init__(self, spec: FabricSpec, base: GPUSpec) -> None:
        self.spec = spec
        self.base = base
        pcie = base.pcie
        if spec.h2d_bandwidth is not None:
            pcie = replace(pcie, bandwidth=spec.h2d_bandwidth)
        if spec.topology == "nvlink":
            d2d_bw = spec.d2d_bandwidth or NVLINK_BANDWIDTH
            d2d_lat = spec.d2d_latency if spec.d2d_latency is not None \
                else NVLINK_LATENCY
        else:
            # Peer traffic over PCIe bounces through the root complex: two
            # hops share the host link, so half bandwidth, double latency.
            d2d_bw = spec.d2d_bandwidth or pcie.bandwidth / 2
            d2d_lat = spec.d2d_latency if spec.d2d_latency is not None \
                else pcie.latency * 2
        self.device_link = LinkSpec(kind=spec.topology, bandwidth=d2d_bw,
                                    latency=d2d_lat)
        self.devices: List[DeviceSpec] = [
            DeviceSpec(d, spec.memory_of(d, base.memory_bytes))
            for d in range(spec.n_devices)
        ]

    def link(self, src: int, dst: int) -> LinkSpec:
        """The link used between two devices (each reaches the host through
        its :class:`GPUSpec`'s PCIe link)."""
        if src == dst:
            raise ValueError(f"no link from device {src} to itself")
        return self.device_link

    def gpu_spec(self, device_id: int) -> GPUSpec:
        """The per-device :class:`GPUSpec` (base + this device's memory cap)."""
        spec = self.base.with_memory(self.devices[device_id].memory_bytes)
        if self.spec.h2d_bandwidth is not None:
            spec = replace(spec, pcie=replace(
                spec.pcie, bandwidth=self.spec.h2d_bandwidth))
        return spec


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
        self.topology = FabricTopology(spec, base or GPUSpec())
        self.charge_scale = charge_scale
        self.clock = VirtualClock()
        self.events = EventLog(record=record_events)
        self.faults = faults
        self.devices: List[SimulatedGPU] = [
            SimulatedGPU(
                self.topology.gpu_spec(d.device_id),
                charge_scale=charge_scale,
                faults=faults,
                device_id=d.device_id,
                clock=self.clock,
                events=self.events,
            )
            for d in self.topology.devices
        ]
        #: Per-device link port: the serially-ordered egress engine for
        #: device↔device traffic.
        self.links: List[Lane] = [
            Lane("link", self.clock, log=self.events, device=d.device_id)
            for d in self.topology.devices
        ]
        #: Total paper-scale device↔device bytes moved (incremental; the
        #: recorded-mode equivalent is :func:`fold_exchange_bytes`).
        self.exchange_bytes: int = 0
        self._exchange_by_device: Dict[int, int] = {
            d.device_id: 0 for d in self.topology.devices
        }
        #: Per-device health (``"up"`` / ``"stalled"`` / ``"down"``),
        #: advanced by :meth:`check_health` against the fault plan's
        #: device faults.  Without an injector every device stays up.
        self.health: Dict[int, str] = {
            d.device_id: "up" for d in self.topology.devices
        }

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
        link = self.topology.link(src, dst)
        if nbytes <= 0:
            return self.links[src].submit(0.0, label, after=after)
        charged = int(round(nbytes * self.charge_scale))
        fixed, variable = link.copy_cost(charged)
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
