"""On-demand Engine planning (CPU side, §3.1).

Given the OndemandMap (active vertices not covered by the Static Region),
the On-demand Engine walks the vertex metadata (degrees/offsets), gathers
the requested edges from the host CSR, and streams them to the On-demand
Region — "similar to the scheme used in Subway" (§3.1).  When the gathered
volume exceeds the region, it is processed in rounds (§3.3's motivation for
not letting the region get too small).

This module computes the *plan* — volumes and round count;
:func:`repro.gpusim.rounds.stream_rounds` splits them over the rounds and
charges the simulated lanes.  Rounds are never materialized: a
pathologically small region (the right edge of Fig. 10's sweep) implies
millions of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.frontier import active_edge_count
from repro.graph.csr import CSRGraph
from repro.gpusim.rounds import round_shares

__all__ = ["OnDemandPlan", "plan_ondemand", "round_shares",
           "OFFSET_BYTES_PER_VERTEX"]

#: Bytes per requested vertex for the offset/degree entry that rides along
#: with its edges (Subway's SubVertex arrays): the On-demand Engine's
#: requests and every Subway iteration's active vertices.
OFFSET_BYTES_PER_VERTEX = 8


@dataclass(frozen=True)
class OnDemandPlan:
    """The full on-demand schedule for one iteration."""

    n_vertices: int
    n_edges: int
    edge_bytes: int
    request_bytes: int
    n_rounds: int

    @property
    def total_bytes(self) -> int:
        return self.edge_bytes + self.request_bytes


#: Nothing to fetch: no vertices, no bytes, no rounds.
_EMPTY_PLAN = OnDemandPlan(n_vertices=0, n_edges=0, edge_bytes=0,
                           request_bytes=0, n_rounds=0)


def plan_ondemand(
    graph: CSRGraph, ondemand_mask: np.ndarray, region_bytes: int
) -> OnDemandPlan:
    """Build the round schedule for this iteration's on-demand vertices.

    An empty OndemandMap — every active vertex served in place — is the
    zero plan, without walking any edges.
    """
    n_vertices = int(np.count_nonzero(ondemand_mask))
    if n_vertices == 0:
        return _EMPTY_PLAN
    n_edges = active_edge_count(graph, ondemand_mask)
    edge_bytes = n_edges * graph.bytes_per_edge
    request_bytes = n_vertices * OFFSET_BYTES_PER_VERTEX
    total = edge_bytes + request_bytes
    if total > 0:
        cap = max(int(region_bytes), 1)
        n_rounds = max(-(-total // cap), 1)
    else:
        n_rounds = 0
    return OnDemandPlan(
        n_vertices=n_vertices,
        n_edges=n_edges,
        edge_bytes=edge_bytes,
        request_bytes=request_bytes,
        n_rounds=n_rounds,
    )
