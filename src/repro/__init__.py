"""Ascetic (ICPP '21) reproduction.

This package reproduces *"Ascetic: Enhancing Cross-Iterations Data Efficiency
in Out-of-Memory Graph Processing on GPUs"* (Tang et al., ICPP 2021) as a pure
Python library.  The GPU, its memory system, the PCIe link, and NVIDIA UVM are
modelled by the deterministic simulator in :mod:`repro.gpusim`; graph
algorithms are executed for real on scaled datasets and validated against
networkx/scipy.

Layout
------
``repro.graph``
    CSR graphs, generators (RMAT, web-graph), named scaled datasets,
    partitioning — the data substrate.
``repro.gpusim``
    The simulated GPU platform: virtual clock, device memory allocator, PCIe
    link, streams with compute/copy overlap, UVM demand paging, cost model.
``repro.algorithms``
    Push-based vertex-centric BFS / SSSP / CC / PageRank plus reference
    validation.
``repro.engines``
    The baselines the paper compares against: PT (partition-based), UVM,
    and Subway.
``repro.core``
    The paper's contribution: the Ascetic engine — Static Region,
    On-demand Region, overlap scheduler, adaptive ratio, chunk replacement.
``repro.analysis``
    Trace/statistics tooling that regenerates the paper's tables and figures.
``repro.harness``
    Experiment configuration, sweeps and table formatting used by
    ``benchmarks/``.
``repro.runner``
    Batch execution: :class:`~repro.runner.spec.RunSpec` cells fanned out
    across worker processes with a persistent result cache and per-cell
    fault isolation (the CLI's ``repro grid``).
``repro.serve``
    Deterministic multi-tenant serving: seeded request traces, bounded
    admission, graph-affinity scheduling over a warm engine pool,
    multi-source batching, SLO folds (the CLI's ``repro serve``).

Engines are looked up by name through :mod:`repro.engines.registry`;
third-party engines registered there show up in the harness, the CLI and
the grid runner automatically.
"""

from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, load_dataset
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.faults import FaultPlan, standard_plan
from repro.engines.base import AccessPath, Engine, IterationRecord, RunResult
from repro.engines.partition_based import PartitionEngine
from repro.engines.uvm_engine import UVMEngine
from repro.engines.subway import SubwayEngine
from repro.engines import registry
from repro.engines.registry import EngineInfo
from repro.core.ascetic import AsceticConfig, AsceticEngine
from repro.engines.hybrid import HybridEngine
from repro.runner import GridReport, ResultCache, RunSpec, run_grid
from repro import serve

__version__ = "1.1.0"

__all__ = [
    # data substrate
    "CSRGraph",
    "load_dataset",
    "DATASETS",
    # simulated platform
    "GPUSpec",
    "SimulatedGPU",
    # engine surface
    "Engine",
    "EngineInfo",
    "IterationRecord",
    "RunResult",
    "AccessPath",
    "PartitionEngine",
    "UVMEngine",
    "SubwayEngine",
    "AsceticEngine",
    "AsceticConfig",
    "HybridEngine",
    "registry",
    # chaos mode
    "FaultPlan",
    "standard_plan",
    # batch execution
    "RunSpec",
    "ResultCache",
    "GridReport",
    "run_grid",
    # serving layer
    "serve",
    "__version__",
]
