"""Tests for On-demand Engine planning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ondemand import (OFFSET_BYTES_PER_VERTEX, plan_ondemand,
                                 round_shares)
from repro.graph.generators import rmat_graph

from round_oracles import iterative_split


def expand(total, n_rounds):
    """``round_shares`` written out as one share per round."""
    hi, n_hi, lo, n_lo = round_shares(total, n_rounds)
    return [hi] * n_hi + [lo] * n_lo


def byte_rounds(plan):
    return expand(plan.total_bytes, plan.n_rounds)


def edge_rounds(plan):
    return expand(plan.n_edges, plan.n_rounds)


@pytest.fixture()
def graph():
    return rmat_graph(7, 900, seed=17, directed=True)


class TestPlan:
    def test_empty_mask(self, graph):
        plan = plan_ondemand(graph, np.zeros(graph.n_vertices, bool), 1024)
        assert plan.n_rounds == 0
        assert plan.total_bytes == 0
        assert byte_rounds(plan) == []

    def test_volumes(self, graph):
        mask = np.zeros(graph.n_vertices, dtype=bool)
        mask[:10] = True
        plan = plan_ondemand(graph, mask, 10**9)
        deg = graph.out_degree()[:10].sum()
        assert plan.n_edges == deg
        assert plan.edge_bytes == deg * graph.bytes_per_edge
        assert plan.request_bytes == 10 * OFFSET_BYTES_PER_VERTEX
        assert plan.n_vertices == 10

    def test_single_round_when_fits(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 10**9)
        assert plan.n_rounds == 1

    def test_rounds_split_when_overflowing(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, plan_total := None or 500)
        assert plan.n_rounds == -(-plan.total_bytes // 500)

    def test_round_sums_match_totals(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 777)
        assert sum(byte_rounds(plan)) == plan.total_bytes
        assert sum(edge_rounds(plan)) == plan.n_edges
        assert len(byte_rounds(plan)) == plan.n_rounds

    def test_rounds_nearly_even(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 777)
        sizes = byte_rounds(plan)
        assert max(sizes) - min(sizes) <= 1

    def test_rounds_fit_region(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 777)
        assert all(nbytes <= 777 for nbytes in byte_rounds(plan))

    def test_degenerate_region_streams(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 0)
        # Floored at 1 byte per round: pathological but defined.
        assert plan.n_rounds == plan.total_bytes

    @given(st.integers(0, 2**30 - 1), st.integers(1, 5000))
    def test_property_conservation(self, bits, region):
        g = rmat_graph(5, 300, seed=19, directed=True)
        mask = np.array([(bits >> (i % 30)) & 1 for i in range(g.n_vertices)], dtype=bool)
        plan = plan_ondemand(g, mask, region)
        assert sum(byte_rounds(plan)) == plan.total_bytes
        assert sum(edge_rounds(plan)) == plan.n_edges
        assert all(n >= 0 for n in byte_rounds(plan) + edge_rounds(plan))


class TestRoundShares:
    """The closed-form split must reproduce the iterative
    ``ceil(left / rounds_left)`` schedule round for round."""

    @given(st.integers(0, 2**40), st.integers(1, 500))
    def test_property_matches_iterative_split(self, total, n_rounds):
        hi, n_hi, lo, n_lo = round_shares(total, n_rounds)
        assert [hi] * n_hi + [lo] * n_lo == iterative_split(total, n_rounds)
        assert hi * n_hi + lo * n_lo == total
        assert n_hi + n_lo == n_rounds

    def test_zero_rounds(self):
        assert round_shares(100, 0) == (0, 0, 0, 0)

    def test_matches_plan_iter_rounds(self, graph):
        mask = np.ones(graph.n_vertices, dtype=bool)
        plan = plan_ondemand(graph, mask, 777)
        assert byte_rounds(plan) == iterative_split(plan.total_bytes,
                                                    plan.n_rounds)
