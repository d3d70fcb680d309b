"""Simulated GPU platform.

The paper's artifact is CUDA on a Tesla P100; Python offers no fine-grained
GPU memory control, so this package models the platform deterministically:

* :mod:`repro.gpusim.clock` — virtual time;
* :mod:`repro.gpusim.device` — the :class:`~repro.gpusim.device.SimulatedGPU`
  facade and its :class:`~repro.gpusim.device.GPUSpec` cost model;
* :mod:`repro.gpusim.memory` — device-memory allocator;
* :mod:`repro.gpusim.pcie` — PCIe link (bandwidth + latency + burst);
* :mod:`repro.gpusim.stream` — lanes (GPU compute / copy engine / CPU) with
  overlap and idle-time accounting;
* :mod:`repro.gpusim.rounds` — the one gather → transfer → compute round
  chain every streaming engine is charged by;
* :mod:`repro.gpusim.kernel` — kernel cost model (edges/s, scans, launches);
* :mod:`repro.gpusim.uvm` — Unified Virtual Memory: pages, faults, LRU;
* :mod:`repro.gpusim.host` — host-side gather cost model;
* :mod:`repro.gpusim.metrics` — counters every engine reports from;
* :mod:`repro.gpusim.events` — the event-sourced accounting core: every
  submit emits one row into the per-run
  :class:`~repro.gpusim.events.EventLog` (typed
  :class:`~repro.gpusim.events.EventColumns` when recording), and metrics,
  phases, spans, and idle accounting are folds over its columns;
* :mod:`repro.gpusim.fabric` — multi-device fabric: N
  :class:`~repro.gpusim.device.SimulatedGPU` instances sharing one clock
  and one event log, with one typed device↔device link built from a
  :class:`~repro.gpusim.fabric.FabricSpec` (see ``docs/fleet.md``);
* :mod:`repro.gpusim.faults` — deterministic chaos mode: a seeded
  :class:`~repro.gpusim.faults.FaultPlan` /
  :class:`~repro.gpusim.faults.FaultInjector` pair injecting transfer
  faults, link degradation, allocation failures, capacity squeezes, and
  kernel faults into the simulation (see ``docs/robustness.md``).

Every engine decision (what to move, when, overlapped with what) lives in the
engines; this package only turns (bytes, edges) into virtual seconds and
enforces capacity.
"""

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import (
    EventColumns,
    EventLog,
    EventLogError,
    IdleBreakdown,
    LaneStats,
    Span,
    fold_device_faults,
    fold_lane_stats,
    fold_metrics,
    fold_spans,
    idle_breakdown,
    qualified_lane,
    validate_log,
)
from repro.gpusim.fabric import Fabric, FabricSpec, LinkSpec, fold_exchange_bytes
from repro.gpusim.events import DEVICE_FAULT_KINDS, FAULT_KINDS
from repro.gpusim.faults import (
    CapacitySqueeze,
    DeviceFault,
    FaultInjector,
    FaultPlan,
    KernelFaultError,
    LinkDegradation,
    TransferFaultError,
    standard_fleet_plan,
    standard_plan,
)
from repro.gpusim.metrics import Metrics
from repro.gpusim.memory import DeviceMemory, Allocation, GPUOutOfMemory
from repro.gpusim.pcie import PCIeLink
from repro.gpusim.kernel import KernelModel
from repro.gpusim.stream import Lane
from repro.gpusim.uvm import UVMMemory
from repro.gpusim.host import HostGather
from repro.gpusim.device import GPUSpec, SimulatedGPU

__all__ = [
    "VirtualClock",
    "Span",
    "EventColumns",
    "EventLog",
    "EventLogError",
    "LaneStats",
    "IdleBreakdown",
    "fold_metrics",
    "fold_spans",
    "fold_lane_stats",
    "fold_device_faults",
    "idle_breakdown",
    "qualified_lane",
    "validate_log",
    "LinkSpec",
    "FabricSpec",
    "Fabric",
    "fold_exchange_bytes",
    "FAULT_KINDS",
    "DEVICE_FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "DeviceFault",
    "LinkDegradation",
    "CapacitySqueeze",
    "TransferFaultError",
    "KernelFaultError",
    "standard_plan",
    "standard_fleet_plan",
    "Metrics",
    "DeviceMemory",
    "Allocation",
    "GPUOutOfMemory",
    "PCIeLink",
    "KernelModel",
    "Lane",
    "UVMMemory",
    "HostGather",
    "GPUSpec",
    "SimulatedGPU",
]
