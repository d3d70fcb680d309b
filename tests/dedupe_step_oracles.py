"""The superstep bodies as they were while ``step`` still deduplicated.

BFS / SSSP / CC / SSWP and the batched traversals mark the next frontier by
scattering the raw destination ids into a boolean mask (duplicates write the
same constant).  They used to ``np.unique`` the ids first; that form lives
on here as the oracle: :func:`dedupe_relax` is one superstep of one program
on plain arrays, expansion rebuilt from scratch (no ``FrontierCache``).
"""

import numpy as np

from repro.algorithms.bfs import UNREACHED
from repro.algorithms.frontier import expand_frontier


def dedupe_relax(name: str, graph, values: np.ndarray, active: np.ndarray,
                 iteration: int) -> np.ndarray:
    """Relax ``active``'s out-edges into ``values`` (in place); returns the
    next-frontier mask, built from deduplicated destination ids."""
    exp = expand_frontier(graph, active)
    nxt = np.zeros(graph.n_vertices, dtype=bool)
    if not exp.n_edges:
        return nxt
    dsts = graph.indices[exp.positions]
    if name == "BFS":
        ids = np.unique(dsts[values[dsts] == UNREACHED])
        values[ids] = iteration + 1
        nxt[ids] = True
        return nxt
    old = values[dsts].copy()
    if name == "CC":
        np.minimum.at(values, dsts, values[exp.sources])
    else:
        weights = graph.weights[exp.positions].astype(np.uint64)
        if name == "SSSP":
            np.minimum.at(values, dsts, values[exp.sources] + weights)
        elif name == "SSWP":
            np.maximum.at(values, dsts,
                          np.minimum(values[exp.sources], weights))
        else:
            raise ValueError(f"no dedupe oracle for {name!r}")
    moved = values[dsts] > old if name == "SSWP" else values[dsts] < old
    nxt[np.unique(dsts[moved])] = True
    return nxt


def has_parallel_edges_and_self_loops(graph) -> bool:
    """Whether ``graph`` can produce duplicate destination ids at all."""
    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.indptr))
    pairs = src * graph.n_vertices + graph.indices
    return bool((src == graph.indices).any()
                and np.unique(pairs).size < pairs.size)
