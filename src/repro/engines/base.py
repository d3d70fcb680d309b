"""Engine contract and run results.

An engine executes one :class:`~repro.algorithms.base.VertexProgram` on one
graph against a fresh device (a :class:`~repro.gpusim.device.SimulatedGPU`
unless the engine builds something else, see ``Engine._make_device``),
charging every byte it moves and every kernel it launches to the virtual
clock.  The numeric computation is not the engine's: every engine replays
the same memoized :class:`~repro.algorithms.base.ProgramTrace` (the
program's frontiers and final values); what an engine contributes is a
*data-movement policy* — which is what the paper evaluates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, program_trace
from repro.graph.csr import ChunkRuns, CSRGraph
from repro.gpusim.device import DeviceFacade, GPUSpec, SimulatedGPU
from repro.gpusim.events import EventLog
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.gpusim.memory import Allocation, GPUOutOfMemory
from repro.gpusim.metrics import Metrics

__all__ = [
    "AccessPath",
    "RunPlan",
    "emit_access_plan",
    "Engine",
    "IterationRecord",
    "RunResult",
]

#: Optional per-iteration observer: ``hook(engine, gpu, graph, state)`` runs
#: before each superstep (used by the analysis tooling to trace accesses).
#: ``gpu`` is the engine's device — the whole ``Fabric`` for a sharded run.
IterationHook = Callable[["Engine", DeviceFacade, CSRGraph, ProgramState], None]


class AccessPath(IntEnum):
    """How one granule of edge data reaches the GPU this iteration.

    Small int codes so a plan's paths are a compact numpy array.  The
    *granule* is whatever unit the engine moves data in — 16 KB chunks for
    Ascetic/Hybrid, UVM pages, whole partitions, Subway gather rounds.
    """

    #: Already in device memory (Static Region chunk, pinned partition).
    RESIDENT = 0
    #: Explicit bulk copy of the whole granule; it becomes resident.
    MIGRATE = 1
    #: CPU gathers the needed bytes into staging, then one bulk copy.
    GATHER = 2
    #: Zero-copy loads over the link; nothing becomes resident.
    DIRECT = 3


@dataclass(frozen=True)
class RunPlan:
    """A run-length access plan: every granule of ``runs[i]`` takes ``paths[i]``.

    An engine builds one from its own decision, and only for a recording
    log (:func:`emit_access_plan`); Hybrid's policy also moves its bytes by
    one.  When the runs are input runs re-cut wherever the decision changes
    inside one, ``origin[i]`` is the input run ``runs[i]`` came from, so
    per-run values carry over as ``values[origin]``.
    """

    runs: ChunkRuns
    paths: np.ndarray  # int8, per run
    origin: np.ndarray  # intp, per run

    @classmethod
    def from_ids(cls, ids, paths) -> "RunPlan":
        """The plan of ascending granule ``ids``, one path per id or one for all.

        A run breaks at an id gap and wherever the path changes; ``origin``
        is the position in ``ids`` where each run starts.
        """
        ids = np.asarray(ids, dtype=np.int64)
        codes = np.broadcast_to(np.asarray(paths, dtype=np.int8), ids.shape)
        runs, first = ChunkRuns.from_ids(ids, codes)
        return cls(runs, codes[first], first)


#: ``AccessPath`` code → the name it is logged under.
_PATH_NAMES = tuple(path.name.lower() for path in AccessPath)


def emit_access_plan(gpu: SimulatedGPU, engine: str, granule: str,
                     plan: RunPlan) -> None:
    """Record one superstep's transfer decisions in a recording log.

    One summary marker (granules per path, in ``extra``), then one block
    with a marker per maximal same-path run of granule ids.  The markers
    carry no counters, so a lean log would drop them: build the plan and
    call this only under ``if gpu.events.record:``.  An empty plan logs
    nothing.
    """
    runs, codes = plan.runs, np.asarray(plan.paths, dtype=np.int64)
    if not len(codes):
        return
    counts = np.bincount(codes, weights=runs.lengths, minlength=len(AccessPath))
    gpu.events.marker(
        "access-path", f"{engine}:{granule}", gpu.clock.now,
        extra=tuple((_PATH_NAMES[path], float(counts[path]))
                    for path in AccessPath if counts[path]))
    # Neighbours merge when they abut and agree.
    breaks = np.flatnonzero((codes[1:] != codes[:-1])
                            | (runs.starts[1:] != runs.ends[:-1])) + 1
    heads = np.concatenate(([0], breaks))
    los = runs.starts[heads]
    his = runs.ends[np.append(breaks - 1, len(runs) - 1)]
    gpu.events.marker_block(
        "access-path", [_PATH_NAMES[code] for code in codes[heads].tolist()],
        gpu.clock.now, (f"{granule}_lo", f"{granule}_hi", "n"),
        [col.astype(np.float64).tolist() for col in (los, his - 1, his - los)],
    )


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry of one superstep."""

    iteration: int
    n_active_vertices: int
    n_active_edges: int
    bytes_h2d: int
    t_start: float
    t_end: float


@dataclass
class RunResult:
    """Everything a finished engine run reports."""

    engine: str
    algorithm: str
    graph_name: str
    values: np.ndarray
    iterations: int
    elapsed_seconds: float
    metrics: Metrics
    gpu_idle_fraction: float
    per_iteration: List[IterationRecord] = field(default_factory=list)
    #: Engine-specific extras (e.g. Ascetic's static prefill bytes, the
    #: chosen static ratio, UVM fault totals).
    extra: Dict[str, float] = field(default_factory=dict)
    #: The run's full event log, attached only when the engine was built
    #: with ``record_events=True`` (``metrics`` above is its fold).
    event_log: Optional[EventLog] = None

    @property
    def processing_bytes_h2d(self) -> float:
        """H2D bytes excluding any Static Region prestore.

        The paper's transfer comparisons report processing traffic without
        the one-time prefill (Fig. 7's note; Table 5's sub-dataset BFS/CC
        volumes) — this is that number.  Equal to ``metrics.bytes_h2d``
        for engines without a prestore.
        """
        return self.metrics.bytes_h2d - self.extra.get("static_prefill_bytes", 0.0)

    @property
    def transfer_over_dataset(self) -> float:
        """Processing bytes H2D / dataset size — the normalization of Table 5."""
        size = self.extra.get("dataset_bytes", 0.0)
        return self.processing_bytes_h2d / size if size else float("nan")

    def summary(self) -> str:
        return (
            f"{self.engine:>8} {self.algorithm:<4} on {self.graph_name:<12} "
            f"{self.elapsed_seconds:9.4f}s  h2d={self.metrics.bytes_h2d / 1e6:9.2f}MB  "
            f"iters={self.iterations:<4d} idle={self.gpu_idle_fraction:5.1%}"
        )


class Engine(abc.ABC):
    """Base class for all data-movement policies.

    Parameters
    ----------
    spec:
        The simulated platform (cost model + device-memory cap, in
        *scaled* bytes — i.e. already multiplied by ``data_scale``).
    record_events:
        Retain every emitted row (as
        :class:`~repro.gpusim.events.EventColumns`) and attach the log to
        :attr:`RunResult.event_log` (trace export, validation).  Off by
        default: lean mode folds events into the counters on emit, keeping
        benchmark overhead flat.
    max_iterations:
        Safety cap overriding the program's own.
    data_scale:
        The dataset down-scaling factor ``s`` (see
        :class:`~repro.gpusim.device.SimulatedGPU`): costs are charged at
        paper scale (``bytes / s``), and byte-granular geometry (UVM pages,
        Ascetic chunks) shrinks by ``s`` so page/chunk *counts* match the
        paper.  ``1.0`` means the graph is at its natural size.
    fault_plan:
        Optional chaos-mode :class:`~repro.gpusim.faults.FaultPlan`; with
        ``seed`` it deterministically injects transfer/kernel/allocation
        faults and capacity squeezes that the engine must absorb.  ``None``
        (or a null plan) is the fault-free model, bit for bit.
    seed:
        The run seed feeding the fault injector's RNG stream.
    """

    name: str = "?"

    #: Engine attributes never pickled into checkpoints: user-supplied
    #: callbacks and the checkpoint writer itself.
    _CKPT_EXCLUDE = ("checkpoint", "iteration_hook")

    def __init__(
        self,
        spec: GPUSpec | None = None,
        max_iterations: Optional[int] = None,
        data_scale: float = 1.0,
        record_events: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
    ) -> None:
        if data_scale <= 0 or data_scale > 1.0:
            raise ValueError("data_scale must be in (0, 1]")
        self.spec = spec or GPUSpec()
        self.record_events = record_events
        self.max_iterations = max_iterations
        self.data_scale = data_scale
        self.fault_plan = fault_plan
        self.seed = int(seed)
        self.iteration_hook: Optional[IterationHook] = None
        #: Optional :class:`~repro.harness.checkpoint.CheckpointWriter`;
        #: when set, the run loop snapshots after every iteration.
        self.checkpoint = None
        #: Iteration the run resumed from (None = ran from scratch).
        self.resumed_iteration: Optional[int] = None
        self._squeeze_allocs: Dict[int, Allocation] = {}

    def scaled_bytes(self, nbytes: int, floor: int = 1) -> int:
        """Scale a paper-scale byte geometry down to this run's data scale."""
        return max(int(nbytes * self.data_scale), floor)

    def reset_for_request(self) -> None:
        """Ready this instance to serve another :meth:`run` on the same graph.

        The serving layer (:mod:`repro.serve`) keeps engines in a per-graph
        pool and calls this between consecutive requests, so an engine may
        carry device-resident state across the runs — the cross-request
        analogue of the paper's cross-*iteration* reuse.
        The base contract keeps nothing (every run is cold);
        :class:`~repro.core.manager.RegionEngine` (Ascetic, Hybrid)
        overrides it to hand its warm region to the next run.
        """
        self.resumed_iteration = None

    # ------------------------------------------------------------ interface
    def _make_device(self, faults: Optional[FaultInjector]) -> DeviceFacade:
        """The fresh device one run is charged against."""
        return SimulatedGPU(
            self.spec,
            charge_scale=1.0 / self.data_scale,
            record_events=self.record_events,
            faults=faults,
        )

    @abc.abstractmethod
    def _prepare(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram) -> None:
        """Allocate device regions and do one-time setup (charged to the clock)."""

    def _begin_superstep(self, gpu: DeviceFacade, graph: CSRGraph,
                         program: VertexProgram, state: ProgramState) -> None:
        """Hook: runs at the top of every superstep, before ``iteration_hook``.

        Outside the iteration stamp and the :class:`IterationRecord`'s
        ``t_start``, so what it charges (a sharded run's device-loss
        recovery) belongs to no superstep.
        """

    @abc.abstractmethod
    def _iteration(
        self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram, state: ProgramState
    ) -> None:
        """Account one superstep's data movement + compute on the clock.

        Called with ``state.active`` being the frontier about to be
        processed (read-only: it is the trace's); must leave the clock at
        the iteration's completion time.  The numeric update is the trace's.
        """

    def _finish(self, gpu: SimulatedGPU, graph: CSRGraph, program: VertexProgram,
                state: ProgramState) -> None:
        """Optional teardown accounting (e.g. copy results back)."""
        gpu.d2h(self._result_bytes(graph), label="results")
        gpu.sync()

    # ----------------------------------------------------------- main loop
    def run(self, graph: CSRGraph, program: VertexProgram,
            resume_from=None) -> RunResult:
        """Execute ``program`` on ``graph``; returns values + accounting.

        The numeric run is the program's memoized
        :func:`~repro.algorithms.base.program_trace`; this loop replays its
        frontiers, one superstep each, and charges their data movement.

        ``resume_from`` accepts an
        :class:`~repro.harness.checkpoint.IterationCheckpoint` written by a
        previous (interrupted) run of the same spec: the engine, device and
        fault-injector RNG stream are restored bit-exactly from the
        snapshot, ``_prepare`` is skipped, and the replay continues from the
        next superstep — producing the same ``RunResult`` an uninterrupted
        run would have.
        """
        trace = program_trace(graph, program, self.max_iterations)
        if resume_from is not None:
            gpu, records = self._restore(resume_from)
        else:
            faults = None
            if self.fault_plan is not None and not self.fault_plan.is_null:
                faults = FaultInjector(self.fault_plan, seed=self.seed)
            gpu = self._make_device(faults)
            records = []
            self._squeeze_allocs = {}
            self._prepare(gpu, graph, program)
            gpu.sync()

        for i in range(len(records), len(trace)):
            state = trace.state(i)
            self._begin_superstep(gpu, graph, program, state)
            if self.iteration_hook is not None:
                self.iteration_hook(self, gpu, graph, state)
            t0 = gpu.clock.now
            h2d0 = gpu.metrics.bytes_h2d
            n_active = state.n_active
            # Memoized: the engine's accounting reuses this same walk.
            n_edges = state.active_edges(graph)
            iter_index = state.iteration
            with gpu.iteration(iter_index):
                self._service_squeezes(gpu, graph, iter_index)
                self._iteration(gpu, graph, program, state)
            gpu.sync()
            records.append(
                IterationRecord(
                    iteration=iter_index,
                    n_active_vertices=n_active,
                    n_active_edges=n_edges,
                    bytes_h2d=gpu.metrics.bytes_h2d - h2d0,
                    t_start=t0,
                    t_end=gpu.clock.now,
                )
            )
            if self.checkpoint is not None:
                self.checkpoint.save(self, gpu, graph, program,
                                     trace.state(i + 1), records)
        self._finish(gpu, graph, program, trace.state(len(trace)))

        result = RunResult(
            engine=self.name,
            algorithm=program.name,
            graph_name=graph.name,
            values=trace.values.copy(),
            iterations=trace.iterations,
            elapsed_seconds=gpu.elapsed,
            metrics=gpu.metrics,
            gpu_idle_fraction=gpu.gpu_idle_fraction(),
            per_iteration=records,
            extra={"dataset_bytes": graph.dataset_bytes / self.data_scale},
            event_log=gpu.events if self.record_events else None,
        )
        if gpu.faults is not None:
            for key, n in gpu.faults.counts.items():
                result.extra[f"fault_{key}"] = float(n)
        self._report_extra(result, gpu, graph)
        return result

    # -------------------------------------------------------- checkpointing
    def snapshot_state(self, gpu: SimulatedGPU,
                       records: List[IterationRecord]) -> bytes:
        """Pickle everything a bit-exact resume needs into one opaque blob.

        A *single* pickle of (engine attrs, gpu, records) preserves shared
        object identity — the engine's ``Allocation`` handles stay the same
        objects ``DeviceMemory`` tracks, the lanes keep sharing one clock
        and event log, and the fault injector's RNG stream rides along — so
        the restored run continues exactly where it stopped.  The program
        state is not in it: the resumed run replays the same trace from
        superstep ``len(records)``.
        """
        import pickle

        payload = {
            "engine": {k: v for k, v in self.__dict__.items()
                       if k not in self._CKPT_EXCLUDE},
            "gpu": gpu,
            "records": records,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore(self, checkpoint):
        """Rehydrate ``snapshot_state``'s blob; returns (gpu, records)."""
        import pickle

        payload = pickle.loads(checkpoint.blob)
        self.__dict__.update(payload["engine"])
        self.resumed_iteration = checkpoint.iteration
        return payload["gpu"], payload["records"]

    # ----------------------------------------------------------- resilience
    def _alloc_retry(self, gpu: SimulatedGPU, name: str, nbytes: int) -> Allocation:
        """``gpu.memory.alloc`` that absorbs *injected* transient failures.

        Real capacity exhaustion propagates unchanged — only chaos-mode
        failures (``exc.injected``) are retried, bounded by the plan's
        ``max_retries``.
        """
        attempt = 0
        while True:
            try:
                return gpu.memory.alloc(name, nbytes)
            except GPUOutOfMemory as exc:
                if not exc.injected or attempt >= gpu.faults.plan.max_retries:
                    raise
                attempt += 1

    def _place_vertex_state(self, gpu: SimulatedGPU, graph: CSRGraph,
                            buffer: str) -> int:
        """Allocate the vertex state; return the device bytes left after it.

        For engines that size ``buffer`` from that remainder: an empty one
        raises :class:`GPUOutOfMemory` naming the buffer.
        """
        self._alloc_retry(gpu, "vertex_state", self._vertex_state_bytes(graph))
        left = gpu.memory.available
        if left <= 0:
            raise GPUOutOfMemory(
                f"no device memory left for {buffer}", name=buffer,
                requested=1, available=left, capacity=gpu.memory.capacity,
                live=gpu.memory.live_allocations())
        return left

    def _service_squeezes(self, gpu: SimulatedGPU, graph: CSRGraph,
                          iteration: int) -> None:
        """Apply/release the plan's capacity squeezes for this iteration.

        A squeeze is a foreign allocation the engine must make room for:
        releases are processed first (so back-to-back squeezes do not
        stack), then each starting squeeze asks ``_release_memory`` to
        free what is missing and claims ``min(want, available)`` — the
        clamp guarantees no engine ever dies on an unsatisfiable squeeze.
        """
        faults = gpu.faults
        if faults is None:
            return
        for idx, _sq in faults.squeeze_releases(iteration):
            alloc = self._squeeze_allocs.pop(idx, None)
            if alloc is not None:
                gpu.memory.free(alloc)
                gpu.events.marker("squeeze-release", alloc.name, gpu.clock.now,
                                  extra=(("nbytes", float(alloc.nbytes)),))
        for idx, sq in faults.squeeze_starts(iteration):
            want = sq.resolve(gpu.memory.capacity)
            if want <= 0:
                continue
            if want > gpu.memory.available:
                self._release_memory(gpu, graph, want - gpu.memory.available)
            granted = min(want, gpu.memory.available)
            if granted <= 0:
                continue
            alloc = gpu.memory.alloc(f"chaos-squeeze-{idx}", granted)
            self._squeeze_allocs[idx] = alloc
            gpu.events.marker("squeeze", alloc.name, gpu.clock.now,
                              extra=(("nbytes", float(granted)),
                                     ("wanted", float(want))))

    def _release_memory(self, gpu: SimulatedGPU, graph: CSRGraph,
                        need: int) -> int:
        """Give back up to ``need`` bytes of device memory; returns bytes freed.

        Engines override this with their degradation policy (shrink the
        static region, re-partition, evict UVM pages...).  The base engine
        has nothing it can safely release.
        """
        return 0

    # ------------------------------------------------------------- helpers
    def _report_extra(self, result: RunResult, gpu: SimulatedGPU, graph: CSRGraph) -> None:
        """Subclasses append engine-specific numbers to ``result.extra``."""

    @staticmethod
    def _vertex_state_bytes(graph: CSRGraph) -> int:
        return graph.vertex_state_bytes

    @staticmethod
    def _result_bytes(graph: CSRGraph) -> int:
        return graph.n_vertices * 8
