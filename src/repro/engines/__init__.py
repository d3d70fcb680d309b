"""Out-of-GPU-memory processing engines.

The three baselines the paper compares against (§4.1):

* :class:`~repro.engines.partition_based.PartitionEngine` — **PT**: the
  GraphReduce-style scheme that swaps whole graph partitions through GPU
  memory every iteration;
* :class:`~repro.engines.uvm_engine.UVMEngine` — **UVM**: NVIDIA Unified
  Virtual Memory demand paging with LRU eviction and ``cudaMemAdvise``;
* :class:`~repro.engines.subway.SubwayEngine` — **Subway** (EuroSys '20):
  fine-grained per-iteration subgraph gathering, with the sequential
  GenDataMap → Gather → Transfer → Compute pipeline of Fig. 5.

The paper's own engine, Ascetic, is implemented in :mod:`repro.core` and
re-exported here so this package is the one-stop engine surface.  All
engines run the same :class:`~repro.algorithms.base.VertexProgram` and
produce bit-identical vertex values; they differ only in how edge data
reaches the simulated GPU — which is the entire subject of the paper.

A fifth engine, :class:`~repro.engines.hybrid.HybridEngine`, goes beyond
the paper: it chooses per chunk among explicit migration, CPU gathering,
and zero-copy direct access from measured hotness (the HyTGraph/EMOGI
direction).  Every engine logs its per-granule choice of
:class:`~repro.engines.base.AccessPath` the same way when the run records
events: one :class:`~repro.engines.base.RunPlan` per superstep, through
:func:`~repro.engines.base.emit_access_plan`.

Engine lookup by name goes through :mod:`repro.engines.registry`, where
the built-in six (``PT``, ``UVM``, ``Subway``, ``Ascetic``, ``Hybrid``,
``Sharded``) are pre-registered.  An engine's options are its constructor
keywords.
"""

from repro.engines.base import AccessPath, Engine, IterationRecord, RunResult
from repro.engines.partition_based import PartitionEngine
from repro.engines.uvm_engine import UVMEngine
from repro.engines.subway import SubwayEngine
from repro.core.ascetic import AsceticEngine
from repro.engines.hybrid import HybridEngine, HybridPolicy
from repro.engines.sharded import ShardedEngine
from repro.engines import registry

__all__ = [
    "AccessPath",
    "Engine",
    "IterationRecord",
    "RunResult",
    "PartitionEngine",
    "UVMEngine",
    "SubwayEngine",
    "AsceticEngine",
    "HybridEngine",
    "HybridPolicy",
    "ShardedEngine",
    "registry",
]
