"""Workload construction and single-cell runners.

A *cell* is one (dataset, algorithm, engine) combination — one number in
Tables 4/5.  This module is the one place that turns (dataset, scale,
algorithm) into a graph view, a GPU spec and a program; grid cells,
benchmarks and serving requests are all built by :func:`make_workload`.
It pins the parameters the paper pins:

* dataset scale (``BENCH_SCALE``; vertex/edge counts *and* GPU capacity
  shrink together, costs are charged at paper scale — see
  :class:`~repro.gpusim.device.SimulatedGPU`);
* the graph view, named by the program class's ``variant``: SSSP's
  weights (4-byte field, doubling edge bytes, §4.1; small value range so
  re-relaxation volume lands in the paper's regime), k-core's symmetrized
  view, pull PageRank's reverse CSR;
* traversal sources (the max-out-degree hub);
* PR activation threshold (chosen so iteration counts and active fractions
  match Table 1's PR rows).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable

from repro.algorithms import PROGRAMS
from repro.algorithms.base import VertexProgram
from repro.engines import registry
from repro.engines.base import Engine, RunResult
from repro.graph.csr import CSRGraph
from repro.graph.datasets import Dataset, load_dataset
from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec

if TYPE_CHECKING:  # avoid an import cycle; RunSpec is imported at call time
    from repro.runner.spec import RunSpec

__all__ = [
    "BENCH_SCALE",
    "SSSP_WEIGHT_HIGH",
    "PR_TOL",
    "Workload",
    "make_workload",
    "workload_for_spec",
    "run_workload",
    "run_cell",
    "clear_dataset_cache",
]

#: Default dataset down-scale for benchmarks: 1/5000 of the paper keeps the
#: full 4×4×4 grid under ~2 minutes while leaving graphs large enough
#: (≈0.4–1.2 M arcs) for stable statistics.
BENCH_SCALE = 2.0e-4

#: SSSP edge weights are uniform in [1, SSSP_WEIGHT_HIGH); the small range
#: keeps frontier-Bellman-Ford's re-relaxation volume in the regime the
#: paper's SSSP transfer volumes imply (Table 5).
SSSP_WEIGHT_HIGH = 3

#: PR activation threshold (relative to teleport mass); yields iteration
#: counts and mean active fractions near Table 1's PR rows.
PR_TOL = 1e-2


@dataclass(frozen=True)
class Workload:
    """One (dataset, algorithm) pair, ready to run on any engine.

    :func:`make_workload`'s ``program_factory`` is the program class with
    the pinned parameters bound; a keyword overrides one (the serving layer
    passes an explicit ``source``).
    """

    dataset: Dataset
    algorithm: str
    graph: CSRGraph
    spec: GPUSpec
    scale: float
    program_factory: Callable[..., VertexProgram]

    def fresh_program(self) -> VertexProgram:
        return self.program_factory()


#: Serializes dataset loads.  CPython's ``lru_cache`` is safe to *call*
#: concurrently, but on a miss it may run the wrapped loader more than
#: once for the same key and hand different callers *different* Dataset
#: objects — which silently breaks everything keyed on graph object
#: identity (the serve layer's warm Static Region reuse, the frontier
#: cache).  The lock makes a concurrent miss load once and everyone see
#: the same object.  The cache is per-process by design: grid workers
#: each load their own copy (forked workers share the parent's warmed
#: cache pages via :func:`repro.runner.executor._preload_datasets`);
#: nothing here is safe to share *across* processes.
_dataset_lock = threading.Lock()


@lru_cache(maxsize=32)
def _cached_dataset_unlocked(abbr: str, scale: float) -> Dataset:
    return load_dataset(abbr, scale=scale)


def _cached_dataset(abbr: str, scale: float) -> Dataset:
    """Memoized, lock-serialized dataset load (single object per key)."""
    with _dataset_lock:
        return _cached_dataset_unlocked(abbr, scale)


#: Every view a caller still holds, so a view the LRU below has dropped is
#: handed back rather than rebuilt: a load test keeps one object per
#: affinity key however many other views are built meanwhile.
_live_views: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


@lru_cache(maxsize=32)
def _cached_view_unlocked(abbr: str, scale: float, variant: str) -> CSRGraph:
    """The ``variant`` view of a dataset, one object per key — so every cell
    and every load test over it shares its program traces (which the graph
    memoizes, ``algorithms.base.program_trace``)."""
    key = (abbr, scale, variant)
    view = _live_views.get(key)
    if view is None:
        view = _live_views[key] = _view(
            _cached_dataset_unlocked(abbr, scale).graph, variant)
    return view


def clear_dataset_cache() -> None:
    """Drop memoized datasets and graph views, and with them their program
    traces and kept shard sets (tests and memory-conscious sweeps)."""
    with _dataset_lock:
        _live_views.clear()
        _cached_view_unlocked.cache_clear()
        _cached_dataset_unlocked.cache_clear()


def _view(graph: CSRGraph, variant: str) -> CSRGraph:
    """The ``variant`` view of ``graph`` (see ``VertexProgram.variant``)."""
    if variant == "plain":
        return graph
    if variant == "weighted":
        return graph.with_random_weights(high=SSSP_WEIGHT_HIGH)
    if variant == "sym":
        return graph.symmetrized()
    if variant == "rev":
        return graph.reverse()
    raise ValueError(f"unknown graph variant {variant!r}")


def make_workload(
    abbr: str,
    algorithm: str,
    scale: float = BENCH_SCALE,
    memory_bytes: int | None = None,
    dataset: Dataset | None = None,
) -> Workload:
    """Build a workload cell.

    ``memory_bytes`` (scaled) overrides the default paper-matched GPU
    capacity — the lever of Fig. 11's left sweep.  ``dataset`` substitutes
    a pre-built dataset (the RMAT family of Fig. 11's right sweep).
    An unknown algorithm, a scale outside (0, 1] or a non-positive
    ``memory_bytes`` raises ``ValueError`` here, not at run time.
    """
    algorithm = algorithm.upper()
    cls = PROGRAMS.get(algorithm)
    if cls is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(PROGRAMS)}")
    if dataset is None:
        with _dataset_lock:
            ds = _cached_dataset_unlocked(abbr, scale)
            graph = _cached_view_unlocked(abbr, scale, cls.variant)
    else:
        ds, graph = dataset, _view(dataset.graph, cls.variant)
    if memory_bytes is None:
        memory_bytes = ds.gpu_memory_bytes
    pinned = {}
    if algorithm in ("BFS", "SSSP", "SSWP"):
        pinned["source"] = best_source(graph)
    elif algorithm in ("PR", "PR-PULL"):
        pinned["tol"] = PR_TOL
    return Workload(
        dataset=ds,
        algorithm=algorithm,
        graph=graph,
        spec=GPUSpec(memory_bytes=memory_bytes),
        scale=ds.scale,
        program_factory=partial(cls, **pinned),
    )


def workload_for_spec(spec: "RunSpec") -> Workload:
    """Materialize the workload a :class:`~repro.runner.spec.RunSpec` names."""
    return make_workload(
        spec.dataset,
        spec.algorithm,
        scale=spec.scale,
        memory_bytes=spec.memory_bytes,
    )


def run_workload(workload: Workload, engine_name: str, checkpoint=None,
                 checkpoint_key: str | None = None, **engine_kwargs) -> RunResult:
    """Run one registered engine on a pre-built workload.

    This is the primitive under :func:`run_cell`; use it directly when the
    workload carries something a spec cannot name (a custom or RMAT
    dataset, a pre-weighted graph).

    ``checkpoint`` (a :class:`~repro.harness.checkpoint.CheckpointStore`)
    with ``checkpoint_key`` enables crash recovery: the engine snapshots
    after every iteration, an existing checkpoint under the key resumes
    the run bit-exactly, and the checkpoint is cleared once the run
    completes.
    """
    engine: Engine = registry.create(
        engine_name, spec=workload.spec, data_scale=workload.scale, **engine_kwargs
    )
    resume = None
    if checkpoint is not None:
        from repro.harness.checkpoint import CheckpointWriter

        if not checkpoint_key:
            raise ValueError("checkpoint requires a checkpoint_key")
        engine.checkpoint = CheckpointWriter(checkpoint, checkpoint_key)
        resume = checkpoint.load(checkpoint_key)
    result = engine.run(workload.graph, workload.fresh_program(),
                        resume_from=resume)
    if checkpoint is not None:
        checkpoint.clear(checkpoint_key)
    return result


def run_cell(spec: "RunSpec", *, checkpoint_dir: str | None = None) -> RunResult:
    """Run one grid cell described by a :class:`~repro.runner.spec.RunSpec`.

    The spec's chaos fields (``fault_plan``/``seed``) are forwarded to the
    engine; ``checkpoint_dir`` enables per-iteration checkpointing keyed by
    the spec's cache key, resuming an interrupted cell bit-exactly.  Engine
    options go in ``RunSpec.engine_opts``; a pre-built workload runs through
    :func:`run_workload`.
    """
    from repro.runner.spec import RunSpec

    if not isinstance(spec, RunSpec):
        raise TypeError(f"run_cell expects a RunSpec, got {type(spec).__name__}")
    kwargs = spec.engine_kwargs()
    if spec.fault_plan is not None:
        kwargs.setdefault("fault_plan", spec.fault_plan)
        kwargs.setdefault("seed", spec.seed)
    store = None
    if checkpoint_dir is not None:
        from repro.harness.checkpoint import CheckpointStore

        store = CheckpointStore(checkpoint_dir)
    return run_workload(workload_for_spec(spec), spec.engine,
                        checkpoint=store, checkpoint_key=spec.cache_key(),
                        **kwargs)

