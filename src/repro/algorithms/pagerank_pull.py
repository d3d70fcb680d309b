"""Pull-based PageRank — the road not taken in §3.1, implemented.

The paper "chooses the push-based vertex-centric programming model"; this
program is the classic alternative: topology-driven *pull* (Jacobi power
iteration), where every vertex recomputes its rank each round by gathering
``rank/out_degree`` from its in-neighbors.  Same fixpoint as
:class:`~repro.algorithms.pagerank.PageRank` (the validation oracle is
shared), but every vertex is active every iteration — so an out-of-memory
engine must stream the *whole* edge array per round.  Running it under the
engines quantifies exactly why out-of-memory frameworks push:
``benchmarks/bench_push_vs_pull.py``.

It streams the **reversed** graph (``variant = "rev"``): a pull over
in-edges is a scan over the reverse CSR's out-edges, which is the array an
engine would stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["PageRankPull", "PageRankPullState"]


@dataclass
class PageRankPullState(ProgramState):
    rank: np.ndarray = None  # float64
    #: Original out-degrees (in-degrees of the reversed graph), the
    #: normalization of each pulled contribution.
    push_degree: np.ndarray = None


class PageRankPull(VertexProgram):
    """Topology-driven pull PR with damping ``d``; stops at max-delta < tol.

    ``tol`` is relative to the uniform teleport mass, like the push
    variant's.  The input graph must be the *reverse* of the graph whose
    PageRank is wanted.
    """

    name = "PR-PULL"
    variant = "rev"
    atomics = False  # gather, no scatter contention
    max_iterations = 500

    def __init__(self, damping: float = 0.85, tol: float = 1e-3):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        self.damping = damping
        self.tol = tol

    def init_state(self, reversed_graph: CSRGraph) -> PageRankPullState:
        n = reversed_graph.n_vertices
        rank = np.full(n, 1.0 / max(n, 1), dtype=np.float64)
        # Original out-degree of u = number of reversed arcs arriving at u.
        push_degree = np.bincount(
            reversed_graph.indices, minlength=n
        ).astype(np.float64)
        active = np.ones(n, dtype=bool) if n else np.zeros(0, dtype=bool)
        return PageRankPullState(active=active, rank=rank, push_degree=push_degree)

    def step(self, reversed_graph: CSRGraph, state: PageRankPullState) -> None:
        n = reversed_graph.n_vertices
        teleport = (1.0 - self.damping) / max(n, 1)
        exp = state.frontier(reversed_graph)
        new_rank = np.full(n, teleport, dtype=np.float64)
        if exp.n_edges:
            srcs = reversed_graph.indices[exp.positions]  # original sources
            contrib = state.rank[srcs] / np.maximum(state.push_degree[srcs], 1.0)
            np.add.at(new_rank, exp.sources, self.damping * contrib)
        delta = float(np.max(np.abs(new_rank - state.rank))) if n else 0.0
        state.rank = new_rank
        # Topology-driven: everyone stays active until global convergence.
        if delta <= self.tol * teleport:
            state.active = np.zeros(n, dtype=bool)
        else:
            state.active = np.ones(n, dtype=bool)
        state.iteration += 1

    def values(self, state: PageRankPullState) -> np.ndarray:
        return state.rank
