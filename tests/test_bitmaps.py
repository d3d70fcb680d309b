"""Fig. 4's bitmap identity, specified where it is computed.

``core/manager.py::superstep_frame`` opens every Ascetic and Hybrid
superstep: OndemandMap = ActiveBitmap ∧ ¬StaticBitmap in one operation.
Fig. 4 states it as StaticMap = Active ∧ Static and OndemandMap = Active ⊕
StaticMap.  These properties check the frame against that definition on
random graphs, regions and active masks, with StaticBitmap computed
vertex by vertex from the region's resident chunks.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.base import ProgramState
from repro.core.manager import superstep_frame
from repro.core.static_region import FILLS, StaticRegion
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.graph.csr import CSRGraph


@st.composite
def frames(draw):
    """``(graph, region, active, frame)`` for one random superstep."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = CSRGraph.from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n)
    chunk_bytes = draw(st.sampled_from([4, 8, 16, 64]))
    region = StaticRegion(
        graph, int(graph.edge_array_bytes * draw(st.floats(0.0, 1.0))),
        chunk_bytes=chunk_bytes, fill=draw(st.sampled_from(FILLS)),
        seed=draw(st.integers(0, 7)), fragment_chunks=draw(st.integers(1, 8)))
    active = rng.random(n) < draw(st.floats(0.0, 1.0))
    frame = superstep_frame(SimulatedGPU(GPUSpec()), graph,
                            ProgramState(active=active), region,
                            draw(st.integers(0, 256)))
    return graph, region, active, frame


def static_bitmap(graph, region):
    """StaticBitmap by definition: every chunk of the vertex's edge range
    is resident; a vertex without edges is static."""
    bpe, cb = graph.bytes_per_edge, region.chunk_bytes
    out = np.ones(graph.n_vertices, dtype=bool)
    for v in range(graph.n_vertices):
        lo, hi = int(graph.indptr[v]) * bpe, int(graph.indptr[v + 1]) * bpe
        if hi > lo:
            out[v] = bool(region.resident[lo // cb:(hi - 1) // cb + 1].all())
    return out


class TestSplitActive:
    @given(frames())
    def test_property_partition_of_active(self, drawn):
        """StaticMap and OndemandMap partition the active set exactly, and
        the static edges are the out-degrees of StaticMap's vertices."""
        graph, region, active, frame = drawn
        smap = active & static_bitmap(graph, region)
        assert not (smap & frame.odmap).any()
        assert np.array_equal(smap | frame.odmap, active)
        degree = np.diff(graph.indptr)
        assert frame.static_edges == sum(
            int(degree[v]) for v in range(graph.n_vertices) if smap[v])

    @given(frames())
    def test_property_xor_identity(self, drawn):
        """The paper's XOR formulation: OndemandMap = Active ⊕ StaticMap."""
        graph, region, active, frame = drawn
        smap = active & static_bitmap(graph, region)
        assert np.array_equal(frame.odmap, active ^ smap)
