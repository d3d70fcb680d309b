"""Closed-form transfer predictions — the model-vs-measurement layer.

Each engine's data movement has a closed form in terms of the algorithm's
per-iteration active sets.  These predictors compute it *without running
the engine*; the test suite asserts that engine-measured bytes match the
prediction (exactly, for the deterministic policies) — evidence that the
engines implement the policies they claim, and a planning tool for users
("how much would policy X move on my workload?").

All predictions are in charged (paper-scale) bytes, like engine metrics.

Oracle table — name, kind (``spec`` or ``snapshot``), and the code a
snapshot was moved from::

    ActiveTrace           snapshot  analysis/predict.py (moved)
    record_active_trace   snapshot  analysis/predict.py (moved)
    predict_pt_bytes      snapshot  analysis/predict.py (moved)
    predict_subway_bytes  snapshot  analysis/predict.py (moved)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.algorithms.frontier import active_edge_count
from repro.engines.subway import OFFSET_BYTES_PER_ACTIVE_VERTEX
from repro.graph.csr import CSRGraph
from repro.graph.partition import partition_by_bytes, partitions_of_vertices
from repro.gpusim.device import GPUSpec
from repro.gpusim.pcie import PCIeLink

__all__ = ["ActiveTrace", "record_active_trace", "predict_pt_bytes", "predict_subway_bytes"]


@dataclass
class ActiveTrace:
    """Per-iteration active sets of one algorithm run (host-side replay)."""

    masks: List[np.ndarray]
    n_active_vertices: List[int]
    n_active_edges: List[int]
    #: ``state.iteration`` before each superstep, then after the last one.
    iteration_numbers: List[int] = field(default_factory=list)
    #: The program's values when the run stopped.
    values: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.masks)


def record_active_trace(graph: CSRGraph, program: VertexProgram,
                        cap: Optional[int] = None) -> ActiveTrace:
    """Run the program host-side, at most ``cap`` supersteps (default: the
    program's ``max_iterations``), and record every frontier."""
    program.validate_graph(graph)
    state = program.init_state(graph)
    cap = program.max_iterations if cap is None else cap
    masks, nv, ne, its = [], [], [], []
    while state.active.any() and state.iteration < cap \
            and not program.done(state):
        masks.append(state.active.copy())
        nv.append(state.n_active)
        ne.append(active_edge_count(graph, state.active))
        its.append(state.iteration)
        program.step(graph, state)
    its.append(state.iteration)
    return ActiveTrace(masks=masks, n_active_vertices=nv, n_active_edges=ne,
                       iteration_numbers=its,
                       values=program.values(state).copy())


def _payload(link: PCIeLink, nbytes: int, charge_scale: float) -> int:
    return link.payload_bytes(int(round(nbytes * charge_scale)))


def predict_pt_bytes(
    graph: CSRGraph,
    trace: ActiveTrace,
    spec: GPUSpec,
    data_scale: float = 1.0,
    double_buffer: bool = False,
) -> int:
    """H2D bytes the PT engine will move for this trace.

    Vertex state once, then every touched partition, whole, every
    iteration — the Fig. 1 swap pattern.
    """
    charge = 1.0 / data_scale
    budget = spec.memory_bytes - graph.vertex_state_bytes
    if double_buffer:
        budget //= 2
    parts = partition_by_bytes(graph, budget)
    total = _payload(spec.pcie, graph.vertex_state_bytes, charge)
    for mask in trace.masks:
        touched = partitions_of_vertices(graph, parts, mask)
        for pid in np.nonzero(touched)[0]:
            total += _payload(spec.pcie, parts[pid].nbytes, charge)
    return total


def predict_subway_bytes(
    graph: CSRGraph,
    trace: ActiveTrace,
    spec: GPUSpec,
    data_scale: float = 1.0,
) -> int:
    """H2D bytes the (sequential) Subway engine will move for this trace.

    Vertex state once, then per iteration the gathered subgraph: active
    edges plus the per-active-vertex offset structures, split into
    staging-buffer rounds (burst rounding applies per round).
    """
    charge = 1.0 / data_scale
    staging = spec.memory_bytes - graph.vertex_state_bytes
    total = _payload(spec.pcie, graph.vertex_state_bytes, charge)
    for n_vertices, n_edges in zip(trace.n_active_vertices, trace.n_active_edges):
        iter_bytes = (
            n_edges * graph.bytes_per_edge
            + n_vertices * OFFSET_BYTES_PER_ACTIVE_VERTEX
        )
        rounds = max(-(-iter_bytes // staging), 1)
        left = iter_bytes
        for r in range(rounds):
            share = -(-left // (rounds - r))
            left -= share
            total += _payload(spec.pcie, share, charge)
    return total
