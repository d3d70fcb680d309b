"""The vertex-program contract.

A :class:`VertexProgram` is one algorithm under the paper's push-based
vertex-centric model (§3.1): per superstep, every *active* vertex pushes
along its out-edges; pushes may activate destinations for the next
superstep.  The program owns the numeric state (always GPU-resident in the
paper — vertex arrays are small); the *engine* owns how the edge data
reaches the GPU and is charged for it.

Engines drive the loop:

    state = prog.init_state(graph)
    while state.active.any() and not prog.done(state):
        ...account/move the edges of state.active...
        prog.step(graph, state)        # consumes state.active, replaces it

``step`` must be a pure function of (graph, state): given the same inputs it
produces the same outputs on every engine — the cross-engine equivalence
tests rely on that.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.algorithms.frontier import FrontierCache, FrontierExpansion
from repro.graph.csr import CSRGraph

__all__ = ["ProgramState", "VertexProgram"]


@dataclass
class ProgramState:
    """Mutable per-run state shared by all programs.

    ``active`` is the frontier consumed by the *next* call to ``step``.
    Subclasses add the value arrays (levels, distances, labels, ranks).

    The state also carries the per-iteration :class:`FrontierCache`: the
    engine run loop, the engine's data-movement accounting, and the
    program's ``step`` all walk the *same* active mask, so the walk is
    memoized here and happens at most once per superstep.  The cache is
    transparent — every accessor is a pure function of ``(graph, active)``
    — and is dropped on pickling (checkpoints recompute it).
    """

    active: np.ndarray
    iteration: int = 0
    #: Edges processed so far, accumulated by ``step`` (for reports).
    edges_relaxed: int = field(default=0)

    def __post_init__(self) -> None:
        self._frontier = FrontierCache()

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))

    # --------------------------------------------------- shared frontier
    def frontier(self, graph: CSRGraph) -> FrontierExpansion:
        """The expansion of the current active mask, computed at most once.

        Valid as long as ``active`` is replaced (never mutated in place)
        between supersteps — which every engine and program does.
        """
        return self._frontier.expansion(graph, self.active)

    def active_edges(self, graph: CSRGraph) -> int:
        """Out-edge count of the current active mask, computed at most once."""
        return self._frontier.edge_count(graph, self.active)

    def active_vertices(self, graph: CSRGraph):
        """``(ids, out_degrees)`` of the active vertices (memoized walk)."""
        return self._frontier.vertices(graph, self.active)

    # ------------------------------------------------------------ pickling
    def __getstate__(self):
        # The frontier cache holds derived arrays only; keep checkpoint
        # blobs lean and let a restored run rebuild it on first use.
        state = dict(self.__dict__)
        state["_frontier"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self.__dict__.get("_frontier") is None:
            self._frontier = FrontierCache()


class VertexProgram(abc.ABC):
    """One algorithm in the push-based vertex-centric model."""

    #: Paper abbreviation (BFS/SSSP/CC/PR).
    name: str = "?"
    #: Whether edges must carry weights (doubles edge bytes; SSSP).
    needs_weights: bool = False
    #: Cost-model hint: kernel dominated by atomic scatter updates.
    atomics: bool = False
    #: Hard iteration cap (safety net; PR uses it as its budget too).
    max_iterations: int = 10_000

    @abc.abstractmethod
    def init_state(self, graph: CSRGraph) -> ProgramState:
        """Allocate value arrays and the initial frontier."""

    @abc.abstractmethod
    def step(self, graph: CSRGraph, state: ProgramState) -> None:
        """Run one superstep: consume ``state.active``, update values,
        install the next frontier, and bump ``state.iteration``."""

    @abc.abstractmethod
    def values(self, state: ProgramState) -> np.ndarray:
        """The result array (levels / distances / labels / ranks)."""

    def done(self, state: ProgramState) -> bool:
        """Termination test beyond an empty frontier."""
        return state.iteration >= self.max_iterations

    def validate_graph(self, graph: CSRGraph) -> None:
        """Raise if the graph cannot run this program."""
        if self.needs_weights and not graph.is_weighted:
            raise ValueError(f"{self.name} requires edge weights")

    def run_reference(
        self, graph: CSRGraph,
        before_step: Optional[Callable[[ProgramState], None]] = None,
    ) -> np.ndarray:
        """Run the program to completion host-side (no engine, no costs).

        This is the oracle the engine tests compare against, and the
        cheapest way to get exact per-iteration frontiers for the analysis
        tooling: ``before_step(state)`` sees each superstep's state while
        ``state.active`` is still the frontier about to be consumed.
        """
        self.validate_graph(graph)
        state = self.init_state(graph)
        while state.active.any() and not self.done(state):
            if before_step is not None:
                before_step(state)
            self.step(graph, state)
        return self.values(state)
