"""The vertex-program contract, and the one loop that runs a program.

A :class:`VertexProgram` is one algorithm under the paper's push-based
vertex-centric model (§3.1): per superstep, every *active* vertex pushes
along its out-edges; pushes may activate destinations for the next
superstep.  The program owns the numeric state (always GPU-resident in the
paper — vertex arrays are small); the *engine* owns how the edge data
reaches the GPU and is charged for it.

``step`` must be a pure function of (graph, state): given the same inputs it
produces the same outputs on every engine.  So the frontier sequence and the
final values depend only on (graph, program, iteration cap), and they are
computed once: :func:`program_trace` steps the program to convergence and
records each superstep's frontier in a :class:`ProgramTrace`, memoized on
the graph.  Engines *replay* that trace — ``Engine.run`` walks its frontiers
and charges their data movement — and never call ``step`` themselves.

A *fused* program (``serve.batching``'s multi-source BFS / SSSP) is a
descriptor, not a program: it names a single-source program class
(``single``) and its ``sources``.  Its rows never interact, so its trace is
composed — :meth:`ProgramTrace.union` — from the memoized single-source
traces, one per source; nothing steps it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from repro.algorithms.frontier import FrontierCache, FrontierExpansion
from repro.graph.csr import CSRGraph

__all__ = ["ProgramState", "VertexProgram", "ProgramTrace", "program_trace",
           "row_traces", "TRACE_BYTES_PER_GRAPH"]

#: Bytes of traces one graph keeps (:attr:`ProgramTrace.nbytes`); the least
#: recently used go first, and the newest stays even alone over the budget.
#: A bound, not an option: serving draws fresh traversal sources per
#: request, and an unbounded memo would keep one trace per source for the
#: graph's lifetime.  16 MiB holds a serving pass's single-source traces at
#: 1e-5 (about 65 per graph, 3–6 KB each) and about 24 of the largest grid
#: traces at 2e-4 (UK/CC, 0.69 MB each).  The harness's graphs live in
#: ``harness.experiments``' dataset cache (``maxsize=32``), so clearing that
#: cache drops their traces with them.
TRACE_BYTES_PER_GRAPH = 16 << 20


@dataclass
class ProgramState:
    """Mutable per-run state shared by all programs.

    ``active`` is the frontier consumed by the *next* call to ``step``.
    Subclasses add the value arrays (levels, distances, labels, ranks).

    The state also carries the per-iteration :class:`FrontierCache`: the
    engine run loop and the engine's data-movement accounting (or, while a
    trace is built, the program's ``step``) walk the *same* active mask, so
    the walk is memoized here and happens at most once per superstep.  The
    cache is transparent — every accessor is a pure function of
    ``(graph, active)``.

    An engine sees a *replay* state (:meth:`ProgramTrace.state`): a plain
    ``ProgramState`` whose ``active`` is read-only.
    """

    active: np.ndarray
    iteration: int = 0

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


class VertexProgram(abc.ABC):
    """One algorithm in the push-based vertex-centric model."""

    #: Paper abbreviation (BFS/SSSP/CC/PR).
    name: str = "?"
    #: The graph view the program streams: ``plain`` (the forward CSR),
    #: ``weighted`` (4-byte edge weights, doubling edge bytes; SSSP),
    #: ``sym`` (both arc directions) or ``rev`` (the transpose).  The
    #: harness builds each view once per dataset and scale.
    variant: str = "plain"
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
        if self.variant == "weighted" and not graph.is_weighted:
            raise ValueError(f"{self.name} requires edge weights")

    def run_reference(self, graph: CSRGraph) -> np.ndarray:
        """The program's result on ``graph``, host-side (no engine, no costs).

        The oracle the engine tests compare against: the values of the
        memoized :func:`program_trace`, copied.
        """
        return program_trace(graph, self).values.copy()


class ProgramTrace:
    """One program's superstep sequence on one graph, computed once.

    Built by the one loop that steps a program: it runs ``step`` while the
    frontier is non-empty, fewer than ``cap`` supersteps have run and the
    program is not ``done`` — the condition every engine run stops on — and
    records each superstep's frontier (bit-packed) and pre-step iteration,
    plus the frontier it stopped on.  Then it keeps a copy of the values.

    Engines replay it (``Engine.run``): superstep ``i`` is :meth:`state`
    ``(i)``.  Everything a trace holds is read-only; what an engine derives
    from it alone is memoized with it (:meth:`derived`).
    """

    __slots__ = ("n_vertices", "_frontiers", "values", "nbytes", "_derived")

    def __init__(self, graph: CSRGraph, program: VertexProgram, cap: int) -> None:
        program.validate_graph(graph)
        state = program.init_state(graph)
        frontiers = []
        while state.active.any() and state.iteration < cap and not program.done(state):
            frontiers.append((np.packbits(state.active), state.iteration))
            program.step(graph, state)
        frontiers.append((np.packbits(state.active), state.iteration))
        self._hold(graph.n_vertices, frontiers,
                   np.array(program.values(state), copy=True))

    def _hold(self, n_vertices: int, frontiers, values: np.ndarray) -> None:
        self.n_vertices = n_vertices
        #: ``(packed frontier, pre-step iteration)`` per superstep, then
        #: the frontier and iteration the loop stopped on.
        self._frontiers = tuple(frontiers)
        self.values = values
        self.values.flags.writeable = False
        #: What the trace holds, the memo's budget unit.
        self.nbytes = values.nbytes + sum(p.nbytes for p, _ in self._frontiers)
        self._derived = {}

    @classmethod
    def union(cls, traces: Sequence["ProgramTrace"]) -> "ProgramTrace":
        """The fused run of independent single-source ``traces``.

        Superstep ``i``'s frontier is the OR of the rows' (a finished row's
        is empty), its iteration is ``i``, and it runs as long as the
        longest row; ``values`` stacks the rows' values, row ``r`` from
        ``traces[r]``.  Exact for programs whose rows never interact and
        whose iteration counts supersteps from 0 (BFS, SSSP).  Nothing is
        stepped, and the result is not memoized: composing is cheap.
        """
        rows = [t._frontiers for t in traces]
        frontiers = [
            (np.bitwise_or.reduce([r[i][0] for r in rows if i < len(r)]), i)
            for i in range(max(map(len, rows)))]
        trace = cls.__new__(cls)
        trace._hold(traces[0].n_vertices, frontiers,
                    np.stack([t.values for t in traces]))
        return trace

    def __len__(self) -> int:
        """Supersteps the run executes."""
        return len(self._frontiers) - 1

    @property
    def iterations(self) -> int:
        """``state.iteration`` after the last superstep."""
        return self._frontiers[-1][1]

    def mask(self, i: int) -> np.ndarray:
        """Superstep ``i``'s frontier, read-only (``i == len(self)``: the
        frontier the run stopped on)."""
        mask = np.unpackbits(self._frontiers[i][0],
                             count=self.n_vertices).view(bool)
        mask.flags.writeable = False
        return mask

    def state(self, i: int) -> ProgramState:
        """The state superstep ``i`` starts from, as an engine sees it."""
        return ProgramState(active=self.mask(i),
                            iteration=self._frontiers[i][1])

    def derived(self, key: Hashable,
                build: Callable[[], np.ndarray]) -> np.ndarray:
        """A read-only array that is a function of this trace (and ``key``)
        alone, built by ``build`` on first use and kept with the trace.

        Charged to :attr:`nbytes`, so the graph's trace budget counts it:
        a sharded run's exchange destinations are kept this way.
        """
        got = self._derived.get(key)
        if got is None:
            got = self._derived[key] = build()
            got.flags.writeable = False
            self.nbytes += got.nbytes
        return got


def program_trace(graph: CSRGraph, program: VertexProgram,
                  cap: Optional[int] = None) -> ProgramTrace:
    """The trace of ``program`` on ``graph``, memoized on the graph.

    ``cap`` bounds the supersteps (default: the program's
    ``max_iterations``).  The memo key is the program's type, its instance
    attributes (what its constructor was given) and the cap, so two equal
    programs share one trace; the graph keeps
    :data:`TRACE_BYTES_PER_GRAPH` of them, least recently used out first.

    A fused program's trace is the :meth:`ProgramTrace.union` of
    ``program.single(source=s)``'s over its ``sources``: only those
    single-source traces are memoized, under the key a lone request's
    program has, so fused and lone runs share them.
    """
    cap = max(program.max_iterations if cap is None else cap, 0)
    if getattr(program, "single", None) is not None:
        return ProgramTrace.union(row_traces(graph, program, cap))
    key = (type(program), tuple(sorted(vars(program).items())), cap)
    memo = graph._traces
    trace = memo.get(key)
    if trace is None:
        trace = memo[key] = ProgramTrace(graph, program, cap)
        held = sum(t.nbytes for t in memo.values())
        while held > TRACE_BYTES_PER_GRAPH and len(memo) > 1:
            held -= memo.popitem(last=False)[1].nbytes
    else:
        memo.move_to_end(key)
    return trace


def row_traces(graph: CSRGraph, program: VertexProgram,
               cap: Optional[int] = None) -> List[ProgramTrace]:
    """The memoized single-source traces a run of ``program`` replays.

    One per source of a fused program, in source order — the rows its
    :meth:`ProgramTrace.union` ORs — else the program's own trace.
    """
    single = getattr(program, "single", None)
    if single is None:
        return [program_trace(graph, program, cap)]
    cap = max(program.max_iterations if cap is None else cap, 0)
    return [program_trace(graph, single(source=s), cap)
            for s in program.sources]
