"""Push-based vertex-centric graph algorithms.

The paper evaluates BFS, SSSP, CC and PageRank under a push-based
vertex-centric model with all vertices resident in GPU memory (§3.1).  The
programs here implement that model exactly — level-synchronous supersteps
over an *active* frontier, pushing along out-edges — in fully vectorized
NumPy, and are shared by every engine: engines decide how the active edges
reach the (simulated) GPU, the programs decide what the edges mean.
"""

from repro.algorithms.base import VertexProgram, ProgramState
from repro.algorithms.frontier import expand_frontier, active_edge_count, FrontierExpansion
from repro.algorithms.bfs import BFS
from repro.algorithms.sssp import SSSP
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sswp import SSWP
from repro.algorithms.pagerank_pull import PageRankPull
from repro.algorithms.kcore import KCore

__all__ = [
    "VertexProgram",
    "ProgramState",
    "expand_frontier",
    "active_edge_count",
    "FrontierExpansion",
    "BFS",
    "SSSP",
    "ConnectedComponents",
    "PageRank",
    "SSWP",
    "PageRankPull",
    "KCore",
    "make_program",
    "PROGRAMS",
]

#: Factory registry keyed by the paper's algorithm abbreviations.
PROGRAMS = {
    "BFS": BFS,
    "SSSP": SSSP,
    "CC": ConnectedComponents,
    "PR": PageRank,
    # Extensions beyond the paper's four: widest path (max-min semiring)
    # and pull-mode PageRank (it streams the reverse CSR; see its module
    # docstring for why the paper's frameworks push instead).
    "SSWP": SSWP,
    "PR-PULL": PageRankPull,
    "KCORE": KCore,
}


def make_program(name: str, **kwargs) -> VertexProgram:
    """Instantiate a program by its abbreviation (BFS/SSSP/CC/PR, or the
    SSWP / PR-PULL extensions)."""
    try:
        cls = PROGRAMS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(PROGRAMS)}")
    return cls(**kwargs)
