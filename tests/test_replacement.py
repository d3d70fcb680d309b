"""Tests for the §3.4 hotness table and fragment swap planning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.replacement import HotnessTable
from repro.graph.csr import CSRGraph


def table(n=64, policy="last", threshold=1):
    return HotnessTable(n, policy=policy, stale_threshold=threshold)


class TestUpdate:
    def test_binarized(self):
        h = table(4)
        h.update(np.array([0, 5, 1, 0]))
        assert list(h.last) == [0, 1, 1, 0]
        assert list(h.cumulative) == [0, 1, 1, 0]

    def test_cumulative_counts_iterations(self):
        h = table(2)
        h.update(np.array([3, 0]))
        h.update(np.array([9, 0]))
        assert list(h.cumulative) == [2, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            table(4).update(np.zeros(5))

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            HotnessTable(4, policy="lru")
        with pytest.raises(ValueError):
            HotnessTable(4, stale_threshold=-1)


class TestStaleness:
    def test_last_policy_cold_chunks_stale(self):
        h = table(3, policy="last")
        h.update(np.array([1, 0, 1]))
        assert list(h.staleness()) == [False, True, False]

    def test_cumulative_policy_consumed_chunks_stale(self):
        h = table(3, policy="cumulative", threshold=1)
        h.update(np.array([1, 1, 0]))
        assert not h.staleness().any()  # touched once: not yet consumed
        h.update(np.array([1, 0, 0]))
        assert list(h.staleness()) == [True, False, False]


class TestPlanSwaps:
    def _resident_front(self, n, k):
        r = np.zeros(n, dtype=bool)
        r[:k] = True
        return r

    def test_balanced_plan(self):
        h = table(64, policy="last")
        # Front 32 resident but cold; rear 32 hot but absent.
        touched = np.zeros(64)
        touched[32:] = 1
        h.update(touched)
        plan = h.plan_swaps(self._resident_front(64, 32), budget_chunks=16,
                            fragment_chunks=8)
        assert plan.n_swaps == 16
        assert plan.evict.size == plan.load.size
        assert plan.evict.max() < 32 and plan.load.min() >= 32

    def test_budget_respected(self):
        h = table(64, policy="last")
        touched = np.zeros(64)
        touched[32:] = 1
        h.update(touched)
        plan = h.plan_swaps(self._resident_front(64, 32), budget_chunks=9,
                            fragment_chunks=8)
        assert plan.n_swaps <= 9

    def test_fragment_alignment(self):
        h = table(64, policy="last")
        touched = np.zeros(64)
        touched[32:] = 1
        h.update(touched)
        plan = h.plan_swaps(self._resident_front(64, 32), budget_chunks=64,
                            fragment_chunks=8)
        # Loaded chunks form whole fragments.
        assert set(plan.load // 8) <= set(range(4, 8))
        for f in set(plan.load // 8):
            assert np.count_nonzero(plan.load // 8 == f) == 8

    def test_no_budget_no_plan(self):
        h = table(16)
        assert h.plan_swaps(np.ones(16, bool), 0).n_swaps == 0

    def test_no_candidates_no_plan(self):
        h = table(16, policy="last")
        h.update(np.ones(16))  # everything hot
        plan = h.plan_swaps(self._resident_front(16, 8), budget_chunks=8,
                            fragment_chunks=4)
        assert plan.n_swaps == 0  # nothing stale to evict

    def test_mixed_fragments_not_touched(self):
        h = table(16, policy="last")
        h.update(np.zeros(16))
        resident = np.zeros(16, dtype=bool)
        resident[::2] = True  # every fragment partially resident
        plan = h.plan_swaps(resident, budget_chunks=16, fragment_chunks=4)
        assert plan.n_swaps == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            table(8).plan_swaps(np.ones(4, bool), 4)

    def test_empty_table(self):
        h = HotnessTable(0)
        assert h.plan_swaps(np.zeros(0, bool), 10).n_swaps == 0

    @given(
        st.integers(0, 2**24 - 1),
        st.integers(0, 2**24 - 1),
        st.integers(1, 30),
        st.integers(1, 8),
    )
    def test_property_plan_validity(self, res_bits, touch_bits, budget, frag):
        """Any plan evicts only resident chunks, loads only absent ones,
        stays balanced, and respects the budget."""
        n = 24
        h = table(n, policy="last")
        h.update(np.array([(touch_bits >> i) & 1 for i in range(n)]))
        resident = np.array([(res_bits >> i) & 1 for i in range(n)], dtype=bool)
        plan = h.plan_swaps(resident, budget, fragment_chunks=frag)
        assert plan.evict.size == plan.load.size
        assert plan.n_swaps <= budget
        if plan.n_swaps:
            assert resident[plan.evict].all()
            assert not resident[plan.load].any()
            assert np.unique(plan.evict).size == plan.evict.size
            assert np.unique(plan.load).size == plan.load.size


class TestConstructorValidation:
    def test_last_policy_rejects_threshold_above_one(self):
        """``last`` is binary, so any threshold > 1 would mark every chunk
        stale — including ones touched in the previous iteration."""
        with pytest.raises(ValueError, match="stale_threshold"):
            table(8, policy="last", threshold=2)

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_last_policy_accepts_binary_thresholds(self, threshold):
        h = table(8, policy="last", threshold=threshold)
        h.update(np.arange(8))
        stale = h.staleness()
        # Threshold 0 marks nothing stale; 1 marks exactly the untouched.
        if threshold == 0:
            assert not stale.any()
        else:
            assert np.array_equal(stale, h.last == 0)

    def test_cumulative_policy_allows_large_thresholds(self):
        h = table(8, policy="cumulative", threshold=5)
        assert not h.staleness().any()


def _bits_to_runs(dense):
    """Merged half-open intervals of the set chunks in a dense 0/1 array."""
    d = np.diff(np.concatenate(([0], (dense > 0).astype(np.int8), [0])))
    return np.nonzero(d == 1)[0], np.nonzero(d == -1)[0]


class TestUpdateRuns:
    """Interval-fed updates must be indistinguishable from dense updates."""

    @given(st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=6))
    def test_property_runs_equal_dense(self, iterations):
        n = 24
        by_runs, by_dense = table(n), table(n)
        for bits in iterations:
            dense = np.array([(bits >> i) & 1 for i in range(n)])
            starts, ends = _bits_to_runs(dense)
            by_runs.update_runs(starts, ends)
            by_dense.update(dense)
        assert np.array_equal(by_runs.cumulative, by_dense.cumulative)
        assert np.array_equal(by_runs.last, by_dense.last)
        assert np.array_equal(by_runs.staleness(), by_dense.staleness())

    def test_updates_fold_immediately(self):
        """Every interval update is visible to the next read — per segment
        and through the dense views — with nothing deferred."""
        h = table(16)
        h.update_runs(np.array([0]), np.array([4]))
        assert list(h.seg_cumulative[:5]) == [1, 1, 1, 1, 0]
        h.update_runs(np.array([8]), np.array([12]))
        assert list(h.last[:13]) == [0] * 8 + [1] * 4 + [0]
        assert list(h.cumulative[:13]) == [1] * 4 + [0] * 4 + [1] * 4 + [0]
        assert np.array_equal(h.staleness(), h.last == 0)

    def test_runs_must_fall_on_segment_boundaries(self):
        """A table on a coarser segment partition cannot represent an
        interval that cuts a segment — refused, not silently rounded."""
        # Degrees 2, 1, 3 at 4 B per edge and 2 B chunks: segments
        # [0, 4), [4, 6), [6, 12).
        cmap = CSRGraph.from_edges(np.array([0, 0, 1, 2, 2, 2]),
                                   np.zeros(6, dtype=np.int64), 3).chunk_map(2)
        assert list(cmap.seg_bounds) == [0, 4, 6, 12]
        h = HotnessTable(12, chunk_map=cmap)
        h.update_runs(np.array([4]), np.array([12]))
        assert list(h.seg_last) == [0, 1, 1]
        assert list(h.last) == [0] * 4 + [1] * 8
        with pytest.raises(ValueError, match="segment boundaries"):
            h.update_runs(np.array([5]), np.array([12]))

    def test_mixed_dense_and_runs(self):
        """Dense and interval updates interleave in call order."""
        h, ref = table(8), table(8)
        h.update_runs(np.array([0]), np.array([3]))
        h.update(np.array([0, 1, 0, 0, 1, 0, 0, 0]))
        ref.update(np.array([1, 1, 1, 0, 0, 0, 0, 0]))
        ref.update(np.array([0, 1, 0, 0, 1, 0, 0, 0]))
        assert np.array_equal(h.cumulative, ref.cumulative)
        assert np.array_equal(h.last, ref.last)

    def test_overlapping_intervals_rejected(self):
        h = table(16)
        with pytest.raises(ValueError):
            h.update_runs(np.array([0, 2]), np.array([3, 5]))

    def test_out_of_range_rejected(self):
        h = table(16)
        with pytest.raises(ValueError):
            h.update_runs(np.array([10]), np.array([17]))
        with pytest.raises(ValueError):
            h.update_runs(np.array([-1]), np.array([3]))

    def test_empty_update_counts_as_iteration(self):
        """An iteration touching nothing still resets ``last``."""
        h = table(4)
        h.update_runs(np.array([0]), np.array([4]))
        empty = np.empty(0, dtype=np.int64)
        h.update_runs(empty, empty)
        assert not h.last.any()
        assert list(h.cumulative) == [1, 1, 1, 1]


class TestPlanSwapsResidentCounts:
    """Passing precomputed per-fragment resident counts must not change
    the plan — it only skips the reduceat."""

    @given(
        st.integers(0, 2**24 - 1),
        st.integers(0, 2**24 - 1),
        st.integers(1, 30),
        st.integers(1, 8),
    )
    def test_property_same_plan(self, res_bits, touch_bits, budget, frag):
        n = 24
        h = table(n, policy="last")
        h.update(np.array([(touch_bits >> i) & 1 for i in range(n)]))
        resident = np.array([(res_bits >> i) & 1 for i in range(n)],
                            dtype=bool)
        counts = h.fragment_resident_counts(resident, frag)
        a = h.plan_swaps(resident, budget, fragment_chunks=frag)
        b = h.plan_swaps(resident, budget, fragment_chunks=frag,
                         resident_counts=counts)
        assert np.array_equal(a.evict, b.evict)
        assert np.array_equal(a.load, b.load)
