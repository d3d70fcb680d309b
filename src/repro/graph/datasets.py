"""Named datasets — scaled analogues of the paper's Table 3.

The paper evaluates on four real-world graphs plus an RMAT family:

====== ===================== ========== ======== ========
Abbr   Name                  Vertices   Edges    Directed
====== ===================== ========== ======== ========
GS     gsh-2015-host         68.66 M    1.80 B   yes
FK     friendster-konect     68.35 M    2.59 B   no
FS     friendster-snap       124.83 M   3.61 B   no
UK     uk-2007-04            106.86 M   3.79 B   yes
RMAT   RMAT-rand             40–100 M   2.5–12 B no
====== ===================== ========== ======== ========

Those are multi-billion-edge downloads; we build synthetic analogues scaled
by ``scale`` (default 1/1000) that preserve what the engines' behaviour
depends on: vertex:edge ratio, directedness, degree skew (RMAT for the social
graphs, a locality-biased copying model for the web crawls), and — crucially —
the dataset-size : GPU-memory ratio, because the experiment harness also
scales the simulated GPU capacity by the same factor (paper: 16 GB card capped
to 10 GB, §4.1).

Undirected datasets are stored with both arcs materialized; ``paper_edges``
counts undirected edges, so the stored arc count is twice the scaled edge
count, mirroring how a CUDA push framework must symmetrize.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, social_graph, web_graph

__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASETS",
    "load_dataset",
    "rmat_dataset",
    "PAPER_GPU_MEMORY_BYTES",
    "DEFAULT_SCALE",
]

#: The paper caps the P100's 16 GB at 10 GB for most experiments (§4.1).
PAPER_GPU_MEMORY_BYTES = 10 * 10**9
#: Default down-scaling of vertex/edge counts (and of GPU capacity).
DEFAULT_SCALE = 1.0e-3


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one of the paper's datasets."""

    abbr: str
    full_name: str
    paper_vertices: int
    paper_edges: int
    directed: bool
    kind: str  # "social" (RMAT analogue) or "web" (copying-model analogue)
    seed: int

    def scaled_counts(self, scale: float) -> tuple[int, int]:
        """(n_vertices, n_edges) after scaling, with sane floors.

        ``scale`` must lie in (0, 1], the rule ``RunSpec`` and ``Engine``
        apply: above 1 the graph outgrows the paper's, and at or below 0
        the floors would hand back a 64-vertex graph stamped with it.
        """
        if isinstance(scale, bool) or not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale!r}")
        n = max(int(self.paper_vertices * scale), 64)
        m = max(int(self.paper_edges * scale), 4 * n)
        return n, m


@dataclass(frozen=True)
class Dataset:
    """A loaded, scaled dataset plus the context needed to mimic the paper."""

    spec: DatasetSpec
    graph: CSRGraph
    scale: float

    @property
    def gpu_memory_bytes(self) -> int:
        """The simulated GPU capacity: the paper's 10 GB, scaled like the data."""
        return max(int(PAPER_GPU_MEMORY_BYTES * self.scale), 1 << 16)


DATASETS: Dict[str, DatasetSpec] = {
    "GS": DatasetSpec("GS", "gsh-2015-host", 68_660_000, 1_800_000_000, True, "web", 11),
    "FK": DatasetSpec("FK", "friendster-konect", 68_350_000, 2_590_000_000, False, "social", 12),
    "FS": DatasetSpec("FS", "friendster-snap", 124_830_000, 3_610_000_000, False, "social", 13),
    "UK": DatasetSpec("UK", "uk-2007-04", 106_860_000, 3_790_000_000, True, "web", 14),
}


#: Structural presets per dataset, calibrated so the scaled analogue
#: reproduces the paper's Table 1 active-edge fractions (FK BFS ≈ 4.5 %,
#: UK BFS ≈ 0.8 %) and hence realistic iteration counts.  GS (a host-level
#: crawl, shallower than the page-level UK crawl) gets a softer tail.
_GEN_PRESETS = {
    "GS": dict(window=64, alpha=3.5, frac_long=0.3),
    "UK": dict(window=32, alpha=4.0, frac_long=0.4),
    "FK": dict(window=64, alpha=3.2, hub_exponent=0.9),
    "FS": dict(window=64, alpha=3.2, hub_exponent=0.9),
}


def _build_graph(spec: DatasetSpec, n: int, m: int) -> CSRGraph:
    preset = _GEN_PRESETS.get(spec.abbr, {})
    if spec.kind == "web":
        return web_graph(n, m, seed=spec.seed, name=spec.abbr, **preset)
    if spec.kind == "social":
        # Undirected: paper edge counts are undirected, stored as 2 arcs.
        arcs = (m + 1) // 2
        g = social_graph(n, arcs, seed=spec.seed, name=spec.abbr, **preset)
        # The KONECT/SNAP friendster downloads carry *shuffled* vertex ids,
        # so per-iteration active vertices spread evenly over the edge
        # array — the paper's Fig. 2 pattern and the §3.3 sizing
        # assumption.  Relabel accordingly (the crawl-ordered web datasets
        # keep their id-locality, as the real downloads do).
        rng = np.random.default_rng(spec.seed + 1000)
        perm = rng.permutation(n)
        relabeled = CSRGraph.from_edges(
            perm[g.edge_sources()],
            perm[g.indices.astype(np.int64)],
            n,
            directed=True,  # both arcs are already materialized
            name=spec.abbr,
        )
        relabeled.directed = False
        return relabeled
    # RMAT family (Fig. 11's synthetic sweep): RMAT at the next power of
    # two, folded onto [0, n).  Folding with a modulus preserves the heavy
    # tail while hitting the exact vertex count.
    scale_bits = max(int(math.ceil(math.log2(n))), 4)
    arcs = m if spec.directed else (m + 1) // 2
    g = rmat_graph(scale_bits, arcs, directed=True, seed=spec.seed, name=spec.abbr)
    src = g.edge_sources() % n
    dst = g.indices.astype(np.int64) % n
    return CSRGraph.from_edges(src, dst, n, directed=spec.directed, name=spec.abbr)


def load_dataset(abbr: str, scale: float = DEFAULT_SCALE) -> Dataset:
    """Load a scaled analogue of one of the paper's datasets.

    Parameters
    ----------
    abbr:
        ``"GS"``, ``"FK"``, ``"FS"``, or ``"UK"`` (Table 3), or an RMAT-rand
        member ``"RMAT-<x>B"`` with ``x`` billion paper-scale edges (the
        name :func:`rmat_dataset` gives it).  Anything else is a
        ``ValueError`` naming it and the valid names.
    scale:
        Linear down-scaling of vertex and edge counts.  The matching GPU
        capacity is :attr:`Dataset.gpu_memory_bytes`.
    """
    if abbr.startswith("RMAT-"):
        match = re.fullmatch(r"RMAT-(\d+(?:\.\d+)?)B", abbr)
        if match is None or float(match[1]) == 0:
            raise ValueError(f"malformed RMAT dataset name {abbr!r}; "
                             "expected RMAT-<x>B, x billion edges > 0")
        return rmat_dataset(float(match[1]) * 1e9, scale=scale)
    spec = DATASETS.get(abbr)
    if spec is None:
        raise ValueError(f"unknown dataset {abbr!r}; choose from "
                         f"{', '.join(DATASETS)} or RMAT-<x>B")
    n, m = spec.scaled_counts(scale)
    return Dataset(spec=spec, graph=_build_graph(spec, n, m), scale=scale)


def rmat_dataset(paper_edges: float, scale: float = DEFAULT_SCALE) -> Dataset:
    """Build a member of the paper's RMAT-rand family (Table 3, Fig. 11 right).

    ``paper_edges`` is the paper-scale edge count (2.5e9 … 12e9); the graph is
    generated at ``paper_edges * scale`` arcs.  Vertices are the paper's
    40–100 M range, interpolated with edge count.  The dataset is named
    ``RMAT-<x>B``, which :func:`load_dataset` resolves back to it.
    """
    lo_e, hi_e = 2.5e9, 12.0e9
    frac = min(max((paper_edges - lo_e) / (hi_e - lo_e), 0.0), 1.0)
    spec = DatasetSpec(
        abbr=f"RMAT-{paper_edges / 1e9:g}B",
        full_name="RMAT-rand",
        paper_vertices=int(40e6 + frac * 60e6),
        paper_edges=int(paper_edges),
        directed=False,
        kind="rmat",
        seed=21,
    )
    n, m = spec.scaled_counts(scale)
    return Dataset(spec=spec, graph=_build_graph(spec, n, m), scale=scale)
