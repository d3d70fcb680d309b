"""Active-edge statistics — the Table 1 measurement.

Table 1 reports the *average percentage of active edges per iteration* for
BFS/SSSP/CC/PR on the friendster and uk datasets — the numbers that justify
both Subway's fine-grained transfers and Ascetic's K = 10 % default (§3.3).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.algorithms.base import VertexProgram, program_trace
from repro.algorithms.frontier import active_edge_count
from repro.graph.csr import CSRGraph

__all__ = ["active_edge_fractions", "table1_row"]


def active_edge_fractions(graph: CSRGraph, program: VertexProgram) -> List[float]:
    """Per-iteration active-edge fractions of the program's trace."""
    trace = program_trace(graph, program)
    m = max(graph.n_edges, 1)
    return [active_edge_count(graph, trace.mask(i)) / m
            for i in range(len(trace))]


def table1_row(graph: CSRGraph, programs: Dict[str, VertexProgram]) -> Dict[str, float]:
    """One Table 1 row: mean active-edge fraction per algorithm.

    ``programs`` maps the column label (BFS/SSSP/CC/PR) to a configured
    program; SSSP entries must be paired with a weighted graph by the
    caller (weights double edge bytes, but Table 1 is a *count* fraction,
    so the same graph works for all four columns).
    """
    row: Dict[str, float] = {}
    for label, prog in programs.items():
        fr = active_edge_fractions(graph, prog)
        row[label] = float(np.mean(fr)) if fr else 0.0
    return row
