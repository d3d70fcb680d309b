"""PageRank, push-based with residuals ("PageRank-Delta").

The paper's framework is push-based (§3.1) and its PR runs dozens of
iterations with ~25–29 % of edges active per iteration (Table 1) — that is
the signature of residual-push PR, the formulation Subway and most
out-of-memory GPU frameworks use:

* every vertex carries an accumulated ``rank`` and a pending ``residual``;
* a vertex is *active* while its residual exceeds ``tol``;
* an active vertex absorbs its residual into its rank and pushes
  ``d · residual / out_degree`` to each out-neighbor's residual (atomic add).

At the fixpoint ``rank`` solves ``r = (1-d)/n + d · Σ_{u→v} r_u / deg_u`` —
the PageRank linear system with dangling mass dropped (the usual GPU
treatment).  Validation solves that exact system with scipy and compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.graph.csr import CSRGraph

__all__ = ["PageRank", "PageRankState"]


@dataclass
class PageRankState(ProgramState):
    rank: np.ndarray = None  # float64
    residual: np.ndarray = None  # float64


class PageRank(VertexProgram):
    """Residual-push PageRank with damping ``d`` and activation threshold ``tol``.

    ``tol`` is expressed relative to the uniform teleport mass ``(1-d)/n``:
    a vertex activates while ``residual > tol · (1-d)/n``.  The default 1e-3
    yields iteration counts in the paper's range (tens of supersteps) on the
    scaled datasets.
    """

    name = "PR"
    variant = "plain"
    atomics = True
    max_iterations = 500

    def __init__(self, damping: float = 0.85, tol: float = 1e-3):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        self.damping = damping
        self.tol = tol

    def init_state(self, graph: CSRGraph) -> PageRankState:
        n = graph.n_vertices
        teleport = (1.0 - self.damping) / max(n, 1)
        rank = np.zeros(n, dtype=np.float64)
        residual = np.full(n, teleport, dtype=np.float64)
        active = residual > self.tol * teleport if n else np.zeros(0, dtype=bool)
        return PageRankState(active=active.copy(), rank=rank, residual=residual)

    def step(self, graph: CSRGraph, state: PageRankState) -> None:
        n = graph.n_vertices
        teleport = (1.0 - self.damping) / max(n, 1)
        threshold = self.tol * teleport
        vs, counts = state.active_vertices(graph)
        exp = state.frontier(graph)
        state.edges_relaxed += exp.n_edges
        # Absorb residual into rank for every active vertex (including
        # dangling ones, whose push mass is dropped — see module docstring).
        absorbed = state.residual[vs].copy()
        state.rank[vs] += absorbed
        state.residual[vs] = 0.0
        if exp.n_edges:
            deg = np.where(counts > 0, counts, 1).astype(np.float64)
            push = self.damping * absorbed / deg
            # One pushed share per expanded edge, in the same order as the
            # frontier expansion (dangling vertices expand to zero edges).
            per_edge = np.repeat(push, counts)
            dsts = graph.indices[exp.positions]
            np.add.at(state.residual, dsts, per_edge)
        state.active = state.residual > threshold
        state.iteration += 1

    def values(self, state: PageRankState) -> np.ndarray:
        # Residual not yet absorbed still belongs to the fixpoint rank.
        return state.rank + state.residual

    def done(self, state: ProgramState) -> bool:
        return state.iteration >= self.max_iterations
