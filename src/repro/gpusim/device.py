"""The simulated GPU platform facade.

:class:`GPUSpec` is the single source of truth for the cost model (DESIGN.md
§5); :class:`SimulatedGPU` bundles the virtual clock, the device-memory
allocator, the three lanes (GPU compute, copy engine, host CPU), and the
per-run :class:`~repro.gpusim.events.EventLog`.  Engines talk to this facade
exclusively — it is the "hardware" every policy is charged against,
identically.

Accounting is event-sourced: every operation routes through
:meth:`~repro.gpusim.stream.Lane.submit`, which emits exactly one
row into the log, carrying the op's counter
contribution and the phase/iteration context installed with
``with gpu.phase("Tsr", iteration=i): ...``.  The legacy ``gpu.metrics``
counters remain available as the log's derived view.  Empty operations
(zero bytes / zero edges) are short-circuited uniformly: no lane time, no
span, no event, no counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import EventLog
from repro.gpusim.host import HostGather
from repro.gpusim.kernel import KernelModel
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.metrics import Metrics
from repro.gpusim.pcie import PCIeLink
from repro.gpusim.stream import Lane

__all__ = ["GPUSpec", "DeviceFacade", "SimulatedGPU"]


@dataclass(frozen=True)
class GPUSpec:
    """Cost-model parameters of the simulated platform.

    Defaults approximate the paper's testbed: Tesla P100 (16 GB, capped to
    10 GB), PCIe 3.0 x16, Xeon Silver 4210 host (§4.1).  ``memory_bytes``
    here is the *cap applied to the card*, not the physical 16 GB.
    """

    memory_bytes: int = 10 * 10**9
    pcie: PCIeLink = field(default_factory=PCIeLink)
    kernel: KernelModel = field(default_factory=KernelModel)
    gather: HostGather = field(default_factory=HostGather)
    #: UVM migration granularity (§2: 64 KB–2 MB pages; default 64 KB).
    uvm_page_size: int = 64 * 1024
    #: Seconds the driver spends servicing one batch of page faults.
    uvm_fault_latency: float = 30.0e-6
    #: Faults serviced per driver batch.
    uvm_fault_batch: int = 8
    #: Effective bytes/second of *fault-driven* page migration.  Demand
    #: paging moves data far below bulk-copy bandwidth (small, scattered
    #: DMA plus driver bookkeeping) — the core §4.4 penalty.
    uvm_migration_bandwidth: float = 2.0e9
    #: Kernel slowdown on UVM-managed data even when resident (address
    #: translation, replayable-fault machinery, no read-only caching).
    uvm_kernel_penalty: float = 2.0
    #: Sequential-prefetch depth: pages pulled ahead of each faulting page
    #: (the driver's tree prefetcher groups up to 2 MB).  0 disables.
    uvm_prefetch_pages: int = 0

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.uvm_page_size <= 0 or self.uvm_fault_batch <= 0:
            raise ValueError("invalid UVM parameters")
        if self.uvm_fault_latency < 0 or self.uvm_migration_bandwidth <= 0:
            raise ValueError("invalid UVM fault parameters")
        if self.uvm_kernel_penalty < 1.0:
            raise ValueError("uvm_kernel_penalty must be >= 1")
        if self.uvm_prefetch_pages < 0:
            raise ValueError("uvm_prefetch_pages must be non-negative")

    def with_memory(self, memory_bytes: int) -> "GPUSpec":
        """The same platform with a different device-memory cap."""
        return replace(self, memory_bytes=int(memory_bytes))


class DeviceFacade:
    """What :meth:`Engine.run <repro.engines.base.Engine.run>` needs of a device.

    One ``clock`` and one ``events`` log (set by the subclass), the
    phase / iteration stamping on that log, and the counters folded from
    it.  :class:`SimulatedGPU` is one device;
    :class:`~repro.gpusim.fabric.Fabric` is N of them on one timeline.
    Each adds ``sync()`` and ``gpu_idle_fraction()`` over its own lanes.
    """

    clock: VirtualClock
    events: EventLog

    @property
    def metrics(self) -> Metrics:
        """The legacy counter bundle — now the event log's derived view."""
        return self.events.metrics

    @property
    def elapsed(self) -> float:
        """Virtual seconds since the run started."""
        return self.clock.now

    def phase(self, name: str, iteration: Optional[int] = None) -> "_Stamp":
        """Attribute all work submitted inside the block to phase ``name``.

        Replaces the old per-call ``phase=`` string threading: the emitted
        events carry the phase, and ``metrics.phase_seconds`` is folded
        from them.  Optionally also (re)binds the iteration index.  Both
        are restored on exit, also when the block raises.
        """
        return _Stamp(self, name, _KEEP if iteration is None else iteration)

    def iteration(self, index: int) -> "_Stamp":
        """Stamp events emitted inside the block with iteration ``index``."""
        return _Stamp(self, _KEEP, index)


#: ``_Stamp``'s "leave this one alone" (None is a value: no phase / iteration).
_KEEP = object()


class _Stamp:
    """The context manager behind :meth:`DeviceFacade.phase` and
    :meth:`DeviceFacade.iteration`.

    A class rather than a ``@contextmanager`` generator: a warm serving pass
    enters about 10^5 of them.  ``__enter__`` saves the log's phase and
    iteration and installs the new ones (``_KEEP`` leaves one as it is);
    ``__exit__`` puts back what it saved — ``iteration()`` leaves the phase
    alone — and lets any exception through.
    """

    __slots__ = ("_device", "_phase", "_iteration", "_log", "_saved")

    def __init__(self, device: DeviceFacade, phase, iteration) -> None:
        self._device = device
        self._phase = phase
        self._iteration = iteration

    def __enter__(self) -> DeviceFacade:
        log = self._log = self._device.events
        self._saved = (log.current_phase, log.current_iteration)
        if self._phase is not _KEEP:
            log.current_phase = self._phase
        if self._iteration is not _KEEP:
            log.current_iteration = self._iteration
        return self._device

    def __exit__(self, *exc) -> bool:
        log = self._log
        if self._phase is not _KEEP:
            log.current_phase = self._saved[0]
        log.current_iteration = self._saved[1]
        return False


class SimulatedGPU(DeviceFacade):
    """One simulated device + host pair for one engine run.

    ``charge_scale`` reconciles scaled datasets with real time constants:
    experiments run on graphs scaled down by ``s``
    (:data:`~repro.harness.experiments.BENCH_SCALE` by default) with
    device memory scaled identically, but latencies and bandwidths are
    physical.  Charging a transfer of ``n`` scaled bytes as ``n / s``
    paper-scale bytes keeps every fixed-cost : streaming-cost ratio — and
    therefore every speedup the paper reports — at paper scale.  Reported
    metrics (bytes, seconds) come out directly comparable to the paper's
    tables.  Capacity accounting (the memory allocator) stays in scaled
    bytes throughout.

    ``record_events`` retains every emitted row on ``self.events`` (as
    columns) for trace export and validation; the default lean mode folds
    each emit into the counters and keeps nothing.
    """

    def __init__(self, spec: GPUSpec, charge_scale: float = 1.0,
                 record_events: bool = False,
                 faults=None,
                 device_id: Optional[int] = None,
                 clock: Optional[VirtualClock] = None,
                 events: Optional[EventLog] = None) -> None:
        if charge_scale <= 0:
            raise ValueError("charge_scale must be positive")
        self.spec = spec
        self.charge_scale = charge_scale
        #: Identity within a multi-device :class:`~repro.gpusim.fabric.Fabric`
        #: (rides on every emitted event); ``None`` for a standalone device.
        self.device_id = device_id
        # A Fabric passes one shared clock + log so all its devices live on
        # one timeline; standalone construction keeps private ones.
        self.clock = clock if clock is not None else VirtualClock()
        self.events = events if events is not None else EventLog(record=record_events)
        #: Optional chaos-mode :class:`~repro.gpusim.faults.FaultInjector`;
        #: None means the fault-free model, bit for bit.
        self.faults = faults
        self.memory = DeviceMemory(spec.memory_bytes, faults=faults,
                                   events=self.events, clock=self.clock)
        self.gpu = Lane("gpu", self.clock, log=self.events, device=device_id)
        self.copy = Lane("copy", self.clock, log=self.events, device=device_id)
        self.cpu = Lane("cpu", self.clock, log=self.events, device=device_id)
        #: Zero-copy direct-access traffic over the link (EMOGI path).
        #: Separate from the copy engine: direct loads issue from the SMs
        #: and overlap freely with DMA copies in flight.
        self.direct = Lane("direct", self.clock, log=self.events, device=device_id)

    def _scale(self, n: float) -> int:
        """Scaled count → paper-scale count for the cost model."""
        return int(round(n * self.charge_scale))

    # ------------------------------------------------------------ transfers
    def _copy(self, nbytes: int, label: str, after: float, kind: str) -> float:
        """Queue one explicit copy on the copy engine; returns finish time.

        Fixed latency and streamed payload reach the lane apart so chaos-mode
        link degradation slows only the streamed part.
        """
        if nbytes <= 0:
            return self.copy.submit(0.0, label, after=after)
        pcie = self.spec.pcie
        payload = pcie.payload_bytes(self._scale(nbytes))
        fixed, variable = pcie.copy_cost(payload)
        return self.copy.submit_transfer(
            fixed, variable, label, after=after, kind=kind,
            counters={f"bytes_{kind}": payload, f"{kind}_transfers": 1},
            faults=self.faults,
        )

    def h2d(self, nbytes: int, label: str = "h2d", after: float = 0.0) -> float:
        """Queue a host→device copy on the copy engine; returns finish time."""
        return self._copy(nbytes, label, after, "h2d")

    def d2h(self, nbytes: int, label: str = "d2h", after: float = 0.0) -> float:
        """Queue a device→host copy on the copy engine; returns finish time."""
        return self._copy(nbytes, label, after, "d2h")

    def direct_access(self, nbytes: int, label: str = "zero-copy",
                      after: float = 0.0) -> float:
        """Queue zero-copy reads of host memory on the direct lane.

        ``nbytes`` is in scaled units like :meth:`h2d`; the read costs one
        access per charged ``pcie.sector`` (128 B).  Fault-injectable
        exactly like H2D: the injector degrades only the streamed term and
        failed attempts emit ``direct-fault`` events.
        """
        if nbytes <= 0:
            return self.direct.submit(0.0, label, after=after)
        pcie = self.spec.pcie
        payload = pcie.direct_payload_bytes(self._scale(nbytes))
        accesses = payload // pcie.sector
        fixed, variable = pcie.direct_cost(payload, accesses)
        return self.direct.submit_transfer(
            fixed, variable, label, after=after, kind="direct",
            counters={"bytes_direct": payload, "direct_accesses": accesses},
            faults=self.faults,
        )

    # -------------------------------------------------------------- kernels
    def edge_kernel(self, n_edges: int, label: str = "edges", atomics: bool = False,
                    after: float = 0.0) -> float:
        """Queue an edge-traversal kernel on the GPU lane."""
        if n_edges <= 0:
            return self.gpu.submit(0.0, label, after=after)
        charged = self._scale(n_edges)
        return self.gpu.submit_kernel(
            sum(self.spec.kernel.edge_cost(charged, atomics)), label, after=after,
            counters={"kernel_launches": 1, "edges_processed": charged},
            faults=self.faults,
        )

    def vertex_scan(self, n_vertices: int, passes: int = 1, label: str = "scan",
                    after: float = 0.0) -> float:
        """Queue a vertex-array scan kernel (map generation etc.)."""
        if n_vertices <= 0 or passes <= 0:
            return self.gpu.submit(0.0, label, after=after)
        dur = sum(self.spec.kernel.scan_cost(self._scale(n_vertices), passes))
        return self.gpu.submit_kernel(
            dur, label, after=after,
            counters={"kernel_launches": 1},
            faults=self.faults,
        )

    # ------------------------------------------------------------------ CPU
    def cpu_gather(self, nbytes: int, label: str = "gather",
                   after: float = 0.0) -> float:
        """Queue a host gather of ``nbytes`` into the staging buffer."""
        if nbytes <= 0:
            return self.cpu.submit(0.0, label, after=after)
        dur = sum(self.spec.gather.gather_cost(self._scale(nbytes)))
        return self.cpu.submit(dur, label, after=after, kind="gather")

    def cpu_work(self, seconds: float, label: str = "cpu",
                 after: float = 0.0) -> float:
        """Queue arbitrary host work measured in seconds."""
        return self.cpu.submit(seconds, label, after=after, kind="cpu")

    # ----------------------------------------------------------------- sync
    def sync(self, t: float | None = None) -> float:
        """Wait: for time ``t``, or for all lanes when ``t`` is None."""
        if t is None:
            t = max(self.gpu.busy_until, self.copy.busy_until,
                    self.cpu.busy_until, self.direct.busy_until)
        return self.clock.advance_to(t)

    def gpu_idle_fraction(self) -> float:
        """Share of elapsed time the GPU compute lane sat idle (§2.2's 68 %)."""
        if self.clock.now <= 0:
            return 0.0
        return self.events.idle_seconds(self.gpu.key, self.clock.now) / self.clock.now
