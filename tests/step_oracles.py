"""What a superstep and a trace are, written from their definitions.

A program's trace is what stepping it from ``init_state`` records;
:func:`record_active_trace` is that loop, with no memo and no bit-packing.
A fused BFS / SSSP over sources s₁…s_B runs each source's program on its
own: :func:`fused_trace` steps each and ORs the frontiers superstep by
superstep.  :func:`relax` is one superstep of BFS, SSSP, CC or SSWP as the
per-edge loop the program's definition states, reading the values the
superstep started from.

Oracle table — each oracle's name and kind (``spec``: written from a
definition)::

    ActiveTrace                        spec
    record_active_trace                spec
    fused_trace                        spec
    relax                              spec
    has_parallel_edges_and_self_loops  spec
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.algorithms import make_program
from repro.algorithms.base import VertexProgram
from repro.algorithms.bfs import UNREACHED
from repro.graph.csr import CSRGraph


@dataclass
class ActiveTrace:
    """The frontier each superstep started from, ``state.iteration``
    before each superstep then after the last, and the final values."""

    masks: List[np.ndarray]
    iteration_numbers: List[int]
    values: np.ndarray


def record_active_trace(graph: CSRGraph, program: VertexProgram,
                        cap: Optional[int] = None) -> ActiveTrace:
    """Step ``program`` from ``init_state`` while its frontier is non-empty,
    fewer than ``cap`` supersteps (default: ``max_iterations``) have run and
    it is not ``done``."""
    program.validate_graph(graph)
    state = program.init_state(graph)
    cap = program.max_iterations if cap is None else cap
    masks, its = [], []
    while state.active.any() and state.iteration < cap \
            and not program.done(state):
        masks.append(state.active.copy())
        its.append(state.iteration)
        program.step(graph, state)
    its.append(state.iteration)
    return ActiveTrace(masks, its, program.values(state).copy())


def fused_trace(graph: CSRGraph, algo: str, sources: Sequence[int],
                cap: Optional[int] = None) -> ActiveTrace:
    """Superstep i's frontier is the OR of the single-source frontiers at i
    (a finished row adds nothing); the run lasts as long as the longest row
    and row b's values are ``sources[b]``'s."""
    rows = [record_active_trace(graph, make_program(algo, source=s), cap)
            for s in sources]
    masks = []
    for i in range(max(len(row.masks) for row in rows)):
        mask = np.zeros(graph.n_vertices, dtype=bool)
        for row in rows:
            if i < len(row.masks):
                mask |= row.masks[i]
        masks.append(mask)
    return ActiveTrace(masks, list(range(len(masks) + 1)),
                       np.stack([row.values for row in rows]))


def relax(name: str, graph: CSRGraph, values: np.ndarray, active: np.ndarray,
          iteration: int) -> np.ndarray:
    """One superstep of ``name`` on ``values`` (in place), edge by edge over
    the active vertices' out-edges; returns the next frontier: exactly the
    vertices whose value changed."""
    before = values.copy()
    for u in np.flatnonzero(active):
        for pos in range(graph.indptr[u], graph.indptr[u + 1]):
            v = graph.indices[pos]
            if name == "BFS":
                # A vertex first reached now is one level below the frontier.
                if before[v] == UNREACHED:
                    values[v] = iteration + 1
            elif name == "CC":
                # Labels flow along edges; a vertex keeps the smallest.
                values[v] = min(values[v], before[u])
            elif name == "SSSP":
                # Shortest distance: through u over (u, v) costs d(u) + w.
                values[v] = min(int(values[v]),
                                int(before[u]) + int(graph.weights[pos]))
            elif name == "SSWP":
                # Widest path: through u over (u, v) is min(width(u), w).
                values[v] = max(int(values[v]),
                                min(int(before[u]), int(graph.weights[pos])))
            else:
                raise ValueError(f"no superstep definition for {name!r}")
    return values != before


def has_parallel_edges_and_self_loops(graph) -> bool:
    """Whether ``graph`` can produce duplicate destination ids at all."""
    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.indptr))
    pairs = src * graph.n_vertices + graph.indices
    return bool((src == graph.indices).any()
                and np.unique(pairs).size < pairs.size)
