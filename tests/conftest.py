"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    grid_graph,
    path_graph,
    rmat_graph,
    social_graph,
    star_graph,
    web_graph,
)
from repro.gpusim.device import GPUSpec

# Keep property tests fast and CI-stable.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: Test-scale factor: geometry (pages/chunks) and charge scaling behave as
#: if graphs were 100× bigger.
TEST_SCALE = 1e-2


@pytest.fixture(scope="session")
def small_social() -> CSRGraph:
    """A ~40k-arc social-style graph (undirected, hub-skewed, shuffled-ish)."""
    return social_graph(1500, 20000, seed=42)


@pytest.fixture(scope="session")
def small_web() -> CSRGraph:
    """A ~30k-edge web-style graph (directed, id-local, deep)."""
    return web_graph(2500, 30000, seed=43)


@pytest.fixture(scope="session")
def small_rmat() -> CSRGraph:
    """A small RMAT graph with self-loops and parallel edges kept."""
    return rmat_graph(10, 12000, seed=44)


@pytest.fixture(scope="session")
def tiny_path() -> CSRGraph:
    return path_graph(12)


@pytest.fixture(scope="session")
def tiny_grid() -> CSRGraph:
    return grid_graph(6, 7)


@pytest.fixture(scope="session")
def tiny_star() -> CSRGraph:
    return star_graph(9)


@pytest.fixture()
def spec_oversubscribed(small_social) -> GPUSpec:
    """A device cap that forces out-of-memory processing on small_social."""
    # Vertex state must fit, the edge array must not.
    cap = small_social.vertex_state_bytes + small_social.edge_array_bytes // 3
    return GPUSpec(memory_bytes=cap)


def make_spec_for(graph: CSRGraph, edge_fraction: float = 0.4) -> GPUSpec:
    """A device whose free memory holds ``edge_fraction`` of the edge array."""
    cap = graph.vertex_state_bytes + int(graph.edge_array_bytes * edge_fraction)
    return GPUSpec(memory_bytes=max(cap, 4096))


def neighbors(g: CSRGraph, v: int) -> np.ndarray:
    """Out-neighbours of ``v``: its slice of the CSR index array."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


def assert_graph_valid(g: CSRGraph) -> None:
    """Structural invariants every generated graph must satisfy."""
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.n_edges
    assert np.all(np.diff(g.indptr) >= 0)
    if g.n_edges:
        assert g.indices.min() >= 0
        assert g.indices.max() < g.n_vertices
