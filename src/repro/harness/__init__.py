"""Experiment harness used by ``benchmarks/`` and ``examples/``.

Centralizes the choices every experiment shares — dataset scale, program
parameters, engine registry, platform spec — so each bench regenerates its
table or figure from the same configuration the others use, exactly like
the paper's single test platform (§4.1).

Cell execution at scale (process fan-out, persistent result cache, fault
isolation) lives in :mod:`repro.runner`; this package provides the
building blocks it schedules (:func:`make_workload`, :func:`run_workload`,
:func:`run_cell`) plus the sweeps behind Figures 10/11.
"""

from repro.harness.checkpoint import (
    CheckpointStore,
    CheckpointWriter,
    IterationCheckpoint,
)
from repro.harness.experiments import (
    BENCH_SCALE,
    Workload,
    make_workload,
    workload_for_spec,
    run_workload,
    run_cell,
    run_all_engines,
    clear_dataset_cache,
)
from repro.harness.persistence import (
    load_results,
    result_from_payload,
    result_to_dict,
    result_to_payload,
    save_results,
)
from repro.harness.sweeps import (
    RatioPoint,
    sweep_static_ratio,
    MemoryPoint,
    sweep_gpu_memory,
    sweep_rmat_sizes,
)

__all__ = [
    "BENCH_SCALE",
    "Workload",
    "make_workload",
    "workload_for_spec",
    "run_workload",
    "run_cell",
    "run_all_engines",
    "clear_dataset_cache",
    "RatioPoint",
    "sweep_static_ratio",
    "MemoryPoint",
    "sweep_gpu_memory",
    "sweep_rmat_sizes",
    "result_to_dict",
    "result_to_payload",
    "result_from_payload",
    "save_results",
    "load_results",
    "IterationCheckpoint",
    "CheckpointStore",
    "CheckpointWriter",
]
