"""Synthetic graph generators.

The paper evaluates on four real-world graphs (two social networks, two web
crawls) plus RMAT-generated graphs (§4.1, Table 3 and Figure 11).  The real
datasets are multi-billion-edge downloads we cannot ship, so
:mod:`repro.graph.datasets` builds scaled analogues from the generators here:

* :func:`rmat_graph` — the classic Kronecker-style recursive-matrix
  generator [Chakrabarti et al. 2004], the very generator the paper uses for
  its synthetic sweep.  Produces the heavy-tailed degree distribution of
  social graphs.
* :func:`web_graph` — a Kleinberg-style locality generator mimicking the
  lexicographic URL ordering of the gsh/uk web crawls: near-id links within a
  host plus Pareto-tailed longer links, which is what makes their BFS active
  sets so narrow (Table 1's 0.8 %) and their frontiers so deep.
* :func:`social_graph` — the same locality backbone plus Zipf hub skew, the
  friendster analogue (Table 1's 4.5 %, ~20 BFS levels).

All generators are fully vectorized and deterministic given ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "rmat_graph",
    "web_graph",
    "social_graph",
    "erdos_renyi_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "grid_graph",
    "complete_graph",
]

#: Bound of RMAT's per-level multiplicative jitter on (a, b, c, d).
RMAT_NOISE = 0.05


def _rmat_pairs(
    scale: int,
    n_edges: int,
    a: float,
    b: float,
    c: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_edges`` (src, dst) pairs from an RMAT(2^scale) distribution.

    Vectorized over edges: each recursion level consumes one uniform draw per
    edge and appends one bit to the source and destination ids.  A small
    per-level multiplicative jitter (up to ``RMAT_NOISE``) de-correlates
    levels, the standard "smoothing" that avoids RMAT's grid artifacts.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must be <= 1")
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for _ in range(scale):
        jitter = 1.0 + RMAT_NOISE * (rng.random(4) * 2.0 - 1.0)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        pa, pb, pc = pa / total, pb / total, pc / total
        u = rng.random(n_edges)
        src_bit = u >= pa + pb
        dst_bit = ((u >= pa) & (u < pa + pb)) | (u >= pa + pb + pc)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return src, dst


def rmat_graph(
    scale: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    directed: bool = False,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Generate an RMAT graph with ``2**scale`` vertices and ``n_edges`` edges.

    Defaults (a, b, c) = (0.57, 0.19, 0.19) are the Graph500 parameters, also
    used by the paper's RMAT sweep.  Vertex ids are randomly permuted so that
    degree is uncorrelated with id (matching how downloaded datasets are
    shuffled), self-loops are kept, parallel edges are kept — exactly what a
    raw edge-list download looks like.
    """
    rng = np.random.default_rng(seed)
    n = 1 << scale
    src, dst = _rmat_pairs(scale, n_edges, a, b, c, rng)
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    return CSRGraph.from_edges(
        src,
        dst,
        n,
        directed=directed,
        name=name or f"rmat{scale}-{n_edges}",
    )


def _pareto_offsets(
    rng: np.random.Generator, n: int, window: int, alpha: float, n_vertices: int
) -> np.ndarray:
    """Link distances: Pareto(alpha) tail starting at ``window``.

    ``alpha`` controls how quickly long links die out — the knob that sets
    the graph's BFS depth.  Large ``alpha`` (≥ 3) yields the hundred-level
    frontiers of real web crawls; small ``alpha`` collapses the diameter.
    """
    u = rng.random(n)
    off = (window * (1.0 - u) ** (-1.0 / alpha)).astype(np.int64)
    return np.minimum(off, n_vertices - 1)


def web_graph(
    n_vertices: int,
    n_edges: int,
    window: int = 32,
    alpha: float = 4.0,
    frac_long: float = 0.4,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Generate a directed web-crawl-like graph.

    Crawls order URLs lexicographically, so most links land *near* the
    source id (within a host ≈ ``window``); the rest follow a Pareto
    distance distribution (``alpha``, ``frac_long``) — links to other hosts
    that are themselves mostly crawl-adjacent.  This is a degree-skew-free
    Kleinberg-style model; it reproduces the two properties of the paper's
    web datasets (GS, UK) that the engines' behaviour depends on: strong
    id-locality and *very deep* BFS frontiers (uk-2007-style crawls run
    hundreds of levels — Table 1's 0.8 % active edges per iteration).

    Defaults are the UK preset: ~130 BFS levels and ≈0.8 % mean active
    edges per iteration at the default dataset scale.
    """
    if not 0.0 <= frac_long <= 1.0:
        raise ValueError("frac_long must be in [0, 1]")
    if alpha <= 0 or window < 1:
        raise ValueError("alpha must be positive, window >= 1")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, size=n_edges, dtype=np.int64)
    off_local = rng.integers(1, max(window, 2), size=n_edges, dtype=np.int64)
    off_long = _pareto_offsets(rng, n_edges, window, alpha, n_vertices)
    off = np.where(rng.random(n_edges) < frac_long, off_long, off_local)
    signs = rng.integers(0, 2, size=n_edges, dtype=np.int64) * 2 - 1
    dst = np.clip(src + signs * off, 0, n_vertices - 1)
    return CSRGraph.from_edges(
        src, dst, n_vertices, directed=True, name=name or f"web-{n_vertices}-{n_edges}"
    )


def social_graph(
    n_vertices: int,
    n_edges: int,
    window: int = 64,
    alpha: float = 3.2,
    hub_exponent: float = 0.9,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Generate an undirected social-network-like graph.

    Two ingredients real social graphs have and pure RMAT lacks at small
    scale: *community structure* (links are distance-local under some
    hidden ordering — here the id axis, with Pareto(``alpha``) long links)
    and *hub skew without global shortcuts* (edge endpoints are drawn
    Zipf(``hub_exponent``)-weighted from a shuffled rank, so hubs are big
    but locally embedded).  The result keeps a friendster-like BFS depth of
    ~20 levels (Table 1: 4.5 % active edges per iteration) instead of the
    4-level collapse an RMAT analogue suffers when scaled down.
    """
    if alpha <= 0 or window < 1:
        raise ValueError("alpha must be positive, window >= 1")
    if hub_exponent < 0:
        raise ValueError("hub_exponent must be non-negative")
    rng = np.random.default_rng(seed)
    # Zipf-weighted source sampling over a shuffled rank: local hubs.
    weights = np.arange(1, n_vertices + 1, dtype=np.float64) ** (-hub_exponent)
    weights = weights[rng.permutation(n_vertices)]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    src = np.searchsorted(cdf, rng.random(n_edges)).astype(np.int64)
    off_local = rng.integers(1, max(window, 2), size=n_edges, dtype=np.int64)
    off_long = _pareto_offsets(rng, n_edges, window, alpha, n_vertices)
    off = np.where(rng.random(n_edges) < 0.5, off_long, off_local)
    signs = rng.integers(0, 2, size=n_edges, dtype=np.int64) * 2 - 1
    dst = np.clip(src + signs * off, 0, n_vertices - 1)
    return CSRGraph.from_edges(
        src, dst, n_vertices, directed=False,
        name=name or f"social-{n_vertices}-{n_edges}",
    )


def erdos_renyi_graph(
    n_vertices: int,
    n_edges: int,
    directed: bool = True,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Uniform random graph with exactly ``n_edges`` arcs (with replacement)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, size=n_edges, dtype=np.int64)
    dst = rng.integers(0, n_vertices, size=n_edges, dtype=np.int64)
    return CSRGraph.from_edges(
        src, dst, n_vertices, directed=directed, name=name or f"er-{n_vertices}-{n_edges}"
    )


# --------------------------------------------------------------------------
# Small deterministic graphs for tests and examples.
# --------------------------------------------------------------------------


def path_graph(n: int, directed: bool = True) -> CSRGraph:
    """0 → 1 → 2 → … → n-1."""
    src = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(src, src + 1, n, directed=directed, name=f"path-{n}")


def cycle_graph(n: int, directed: bool = True) -> CSRGraph:
    """A directed ring on ``n`` vertices."""
    src = np.arange(n, dtype=np.int64)
    return CSRGraph.from_edges(src, (src + 1) % n, n, directed=directed, name=f"cycle-{n}")


def star_graph(n: int, directed: bool = True) -> CSRGraph:
    """Vertex 0 points at every other vertex."""
    dst = np.arange(1, n, dtype=np.int64)
    src = np.zeros(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(src, dst, n, directed=directed, name=f"star-{n}")


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """Undirected 2-D grid — handy for predictable SSSP distances."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    src = np.concatenate([right[0], down[0]])
    dst = np.concatenate([right[1], down[1]])
    return CSRGraph.from_edges(
        src, dst, rows * cols, directed=False, name=f"grid-{rows}x{cols}"
    )


def complete_graph(n: int, directed: bool = True) -> CSRGraph:
    """All ordered pairs (no self-loops)."""
    src = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    dst = np.concatenate([np.delete(np.arange(n, dtype=np.int64), v) for v in range(n)])
    return CSRGraph.from_edges(src, dst, n, directed=directed, name=f"k{n}")
