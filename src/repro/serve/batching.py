"""Multi-source traversal fusion: one frontier program, B sources.

Compatible queued traversals (same graph variant, same algorithm) fuse
into a single dispatch: per-source value rows plus a **union** frontier.
The engine charges data movement for the union's edges exactly once per
superstep — that shared edge read is the whole fusion win: B queued BFS
runs each stream the frontier's chunks; the fused run streams them once.

A fused program is a :class:`FusedTraversal` descriptor: the single-source
program class and the sources.  Its rows never interact — row ``r`` is the
single-source program started at ``sources[r]`` — so its trace is the
:meth:`~repro.algorithms.base.ProgramTrace.union` of the memoized
single-source traces (superstep ``i``'s frontier is the OR of the rows',
the values are stacked), and nothing steps it.  A fused run and a lone
request from the same source share one memoized trace, and with ``B == 1``
every array equals the single-source program's by construction.

Latency cost: every request in a batch is charged the full batch service
time (one fused run has one completion time).  The batch-size knob on the
simulator trades that added latency against the shared-read throughput.

:func:`program_for` is the batch → program step of a dispatch: a lone
request that names no sources runs the harness's own program (hub source,
``PR_TOL``); anything else runs over the sources the batch names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple, Type, Union

from repro.algorithms.base import VertexProgram
from repro.algorithms.bfs import BFS
from repro.algorithms.sssp import SSSP
from repro.graph.properties import best_source

if TYPE_CHECKING:
    from repro.harness.experiments import Workload
    from repro.serve.request import Request

__all__ = ["FusedTraversal", "BATCHABLE", "make_batched", "program_for"]


@dataclass(frozen=True)
class FusedTraversal:
    """B runs of one single-source traversal fused over one edge stream.

    ``name`` (``BFSx3``), ``variant``, ``atomics`` and ``max_iterations``
    are the single-source class's; ``program_trace`` composes the trace, and
    the single-source ``init_state`` range-checks each source.
    """

    single: Type[VertexProgram]
    sources: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(int(s) for s in self.sources))
        if not self.sources:
            raise ValueError("batched traversal needs at least one source")

    @property
    def name(self) -> str:
        return f"{self.single.name}x{len(self.sources)}"

    @property
    def variant(self) -> str:
        return self.single.variant

    @property
    def atomics(self) -> bool:
        return self.single.atomics

    @property
    def max_iterations(self) -> int:
        return self.single.max_iterations


#: Single-source program per batchable algorithm.
_SINGLE = {cls.name: cls for cls in (BFS, SSSP)}

#: Algorithms whose multi-source runs fuse into one batched frontier
#: program.
BATCHABLE = frozenset(_SINGLE)


def make_batched(algorithm: str, sources: Sequence[int]) -> FusedTraversal:
    """Construct the fused program for a batchable ``algorithm``."""
    cls = _SINGLE.get(algorithm.upper())
    if cls is None:
        raise ValueError(f"algorithm {algorithm!r} is not batchable "
                         f"({'/'.join(_SINGLE)})")
    return FusedTraversal(cls, sources)


def program_for(batch: Sequence["Request"], workload: "Workload"
                ) -> Union[VertexProgram, FusedTraversal]:
    """The program one dispatch of ``batch`` runs on ``workload.graph``.

    A lone request without sources gets ``workload``'s program.  Otherwise
    every request contributes its sources, folded into the vertex range
    with a modulo (none: the max-out-degree hub, like the harness), and
    more than one source fuses into one batched program.
    """
    if len(batch) == 1 and batch[0].sources is None:
        return workload.fresh_program()
    graph = workload.graph
    sources = [int(s) % graph.n_vertices for r in batch
               for s in (r.sources or (best_source(graph),))]
    if len(sources) == 1:
        return workload.program_factory(source=sources[0])
    return make_batched(batch[0].algorithm, sources)
