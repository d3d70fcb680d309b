"""Tests for graph symmetrization and weakly-connected components."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents
from repro.graph.csr import CSRGraph

from conftest import neighbors


class TestSymmetrized:
    def test_adds_reverse_arcs(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        s = g.symmetrized()
        assert s.n_edges == 4
        assert not s.directed
        assert list(neighbors(s, 1)) == [0, 2] or list(neighbors(s, 1)) == [2, 0]

    def test_undirected_is_identity(self, small_social):
        assert small_social.symmetrized() is small_social

    def test_carries_weights(self):
        g = CSRGraph.from_edges([0], [1], 2, weights=[7])
        s = g.symmetrized()
        assert s.n_edges == 2
        assert set(s.weights.tolist()) == {7}

    def test_symmetric_edge_multiset(self, small_web):
        s = small_web.symmetrized()
        fwd = sorted(zip(s.edge_sources().tolist(), s.indices.tolist()))
        rev = sorted(zip(s.indices.tolist(), s.edge_sources().tolist()))
        assert fwd == rev


class TestWeaklyConnectedComponents:
    def test_wcc_via_symmetrize(self):
        # Directed chain 0→1→2 plus isolated 3: WCC = {0,1,2}, {3}.
        g = CSRGraph.from_edges([0, 1], [1, 2], 4)
        labels = ConnectedComponents().run_reference(g.symmetrized())
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == 3

    def test_wcc_matches_networkx(self, small_web):
        import networkx as nx

        labels = ConnectedComponents().run_reference(small_web.symmetrized())
        nxg = small_web.to_networkx()
        for comp in nx.weakly_connected_components(nxg):
            members = sorted(comp)
            assert len({int(labels[v]) for v in members}) == 1

    def test_directed_cc_differs_from_wcc(self):
        # 1→0: directed min-reaching-label leaves 1 alone; WCC merges them.
        g = CSRGraph.from_edges([1], [0], 2)
        directed = ConnectedComponents().run_reference(g)
        weak = ConnectedComponents().run_reference(g.symmetrized())
        assert directed[1] == 1
        assert weak[1] == 0
