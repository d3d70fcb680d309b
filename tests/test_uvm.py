"""Tests for the UVM demand-paging model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gpusim.events import EventLog
from repro.gpusim.uvm import UVMMemory, _sorted_unique


def make(managed_pages=100, capacity_pages=10, page=64):
    return UVMMemory(managed_pages * page, capacity_pages * page, page_size=page)


class TestBasics:
    def test_geometry(self):
        u = make(100, 10, page=64)
        assert u.n_pages == 100
        assert u.capacity_pages == 10

    def test_partial_tail_page(self):
        u = UVMMemory(100, 1000, page_size=64)
        assert u.n_pages == 2  # 100 bytes → 2 pages of 64

    def test_empty_managed(self):
        u = UVMMemory(0, 1000)
        assert u.n_pages == 0
        out = u.touch(np.array([], dtype=np.int64))
        assert out.n_faults == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            UVMMemory(-1, 10)
        with pytest.raises(ValueError):
            UVMMemory(10, 10, page_size=0)

    def test_pages_of_byte_range(self):
        u = make(page=64)
        assert list(u.pages_of_byte_range(0, 64)) == [0]
        assert list(u.pages_of_byte_range(0, 65)) == [0, 1]
        assert list(u.pages_of_byte_range(63, 129)) == [0, 1, 2]
        assert u.pages_of_byte_range(10, 10).size == 0

    def test_out_of_range_page_rejected(self):
        u = make(10, 5)
        with pytest.raises(IndexError):
            u.touch(np.array([10]))


class TestFaulting:
    def test_first_touch_faults(self):
        u = make()
        out = u.touch(np.arange(5))
        assert out.n_faults == 5
        assert out.bytes_migrated == 5 * u.page_size
        assert u.resident_pages == 5

    def test_second_touch_hits(self):
        u = make()
        u.touch(np.arange(5))
        out = u.touch(np.arange(5))
        assert out.n_faults == 0
        assert out.n_evicted == 0

    def test_duplicates_coalesce(self):
        u = make()
        out = u.touch(np.array([3, 3, 3, 4]))
        assert out.n_touched == 2
        assert out.n_faults == 2

    def test_lru_evicts_oldest(self):
        u = make(100, 3)
        u.touch(np.array([0]))
        u.touch(np.array([1]))
        u.touch(np.array([2]))
        u.touch(np.array([0]))  # refresh page 0
        out = u.touch(np.array([5]))  # must evict page 1 (oldest)
        assert out.n_evicted == 1
        assert u.is_resident(np.array([0]))[0]
        assert not u.is_resident(np.array([1]))[0]

    def test_capacity_never_exceeded(self):
        u = make(100, 4)
        for i in range(0, 100, 7):
            u.touch(np.arange(i, min(i + 3, 100)))
            assert u.resident_pages <= u.capacity_pages


class TestCyclicScanThrash:
    def test_scan_larger_than_memory_always_faults(self):
        """The Fig. 1 pathology: cyclic scan + LRU = 100 % miss."""
        u = make(20, 10)
        for _ in range(3):
            out = u.touch(np.arange(20))
            assert out.n_faults == 20

    def test_scan_fitting_in_memory_hits(self):
        u = make(20, 10)
        u.touch(np.arange(8))
        out = u.touch(np.arange(8))
        assert out.n_faults == 0

    def test_tail_survives_scan(self):
        u = make(20, 10)
        u.touch(np.arange(20))
        assert u.is_resident(np.arange(10, 20)).all()
        assert not u.is_resident(np.arange(0, 10)).any()


class TestPinning:
    def test_pin_prefetches(self):
        u = make(100, 10)
        moved = u.advise_pin(np.arange(4))
        assert moved == 4 * u.page_size
        assert u.is_resident(np.arange(4)).all()

    def test_pin_idempotent(self):
        u = make(100, 10)
        u.advise_pin(np.arange(4))
        assert u.advise_pin(np.arange(4)) == 0

    def test_pinned_never_evicted(self):
        u = make(100, 5)
        u.advise_pin(np.arange(3))
        for i in range(3, 60):
            u.touch(np.array([i]))
        assert u.is_resident(np.arange(3)).all()

    def test_pin_beyond_capacity_rejected(self):
        u = make(100, 5)
        with pytest.raises(ValueError):
            u.advise_pin(np.arange(6))

    def test_pinned_pages_hit_during_thrash(self):
        u = make(30, 10)
        u.advise_pin(np.arange(4))
        out = u.touch(np.arange(30))
        # Only the 26 unpinned pages fault; the pinned prefix hits.
        assert out.n_faults == 26

    def test_pin_out_of_range(self):
        u = make(10, 5)
        with pytest.raises(IndexError):
            u.advise_pin(np.array([99]))

    def test_pin_never_evicts_what_it_pins(self):
        """Pinning a resident LRU page while faulting another in must evict
        someone else: pinned pages are resident, always."""
        u = make(100, 3, page=10)
        for page in (0, 1, 2):
            u.touch(np.array([page]))
        moved = u.advise_pin(np.array([0, 5]))
        assert moved == u.page_size  # only page 5 was missing
        assert u.is_resident(np.array([0, 5])).all()
        assert not u.is_resident(np.array([1]))[0]  # the unpinned LRU page
        assert u.pinned_pages == 2
        assert not (u._pinned & ~u._resident).any()
        assert u.touch(np.array([0])).n_faults == 0


@given(
    st.lists(
        st.lists(st.integers(0, 49), min_size=1, max_size=30),
        min_size=1,
        max_size=25,
    )
)
def test_property_residency_invariants(touch_batches):
    """Any touch sequence keeps residency within capacity and consistent."""
    u = UVMMemory(50 * 64, 12 * 64, page_size=64)
    for batch in touch_batches:
        out = u.touch(np.array(batch, dtype=np.int64))
        assert out.n_faults >= 0 and out.n_evicted >= 0
        assert u.resident_pages <= u.capacity_pages
        assert u.resident_pages == int(np.count_nonzero(u._resident))
        assert out.bytes_migrated == out.n_faults * u.page_size


class TestPrefetch:
    def test_prefetch_migrates_missing(self):
        u = make(100, 20)
        moved = u.prefetch(np.arange(5))
        assert moved == 5 * u.page_size
        assert u.is_resident(np.arange(5)).all()

    def test_prefetch_skips_resident(self):
        u = make(100, 20)
        u.touch(np.arange(5))
        assert u.prefetch(np.arange(5)) == 0

    def test_prefetch_backs_off_under_pressure(self):
        u = make(100, 5)
        u.advise_pin(np.arange(4))
        moved = u.prefetch(np.arange(10, 20))
        # Only one unpinned slot: at most one page prefetched, never a raise.
        assert moved <= u.page_size
        assert u.resident_pages <= u.capacity_pages

    def test_prefetch_out_of_range(self):
        u = make(10, 5)
        with pytest.raises(IndexError):
            u.prefetch(np.array([99]))

    def test_prefetch_empty(self):
        u = make(10, 5)
        assert u.prefetch(np.array([], dtype=np.int64)) == 0


class TestSortedUnique:
    """The pager's normaliser against the ``np.unique`` it replaced."""

    @pytest.mark.parametrize("ids", [
        [], 5, [3], [3, 3, 3, 4], [9, 7, 7, 2, 0], [0, 1, 2, 5, 9],
        [[4, 1], [1, 4]], np.arange(6, dtype=np.int32), (2, 1),
    ], ids=["empty", "0-d", "one", "dups", "descending", "sorted", "2-D",
            "int32", "tuple"])
    def test_named_shapes(self, ids):
        out = _sorted_unique(ids)
        assert out.dtype == np.int64 and out.ndim == 1
        assert np.array_equal(out, np.unique(np.asarray(ids, dtype=np.int64)))

    def test_strictly_increasing_input_is_not_copied(self):
        ids = np.array([1, 4, 6, 7], dtype=np.int64)
        assert np.shares_memory(_sorted_unique(ids), ids)

    @given(hnp.arrays(
        dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
        shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(0, 20)))
    def test_property_equals_np_unique_and_leaves_input_alone(self, ids):
        before = ids.copy()
        out = _sorted_unique(ids)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.unique(ids))
        assert np.array_equal(ids, before)


N_PAGES, PAGE = 40, 8
_ids = st.lists(st.integers(0, N_PAGES - 1), max_size=30)
_pager_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["touch", "prefetch", "advise_pin"]), _ids),
    st.tuples(st.just("shrink_capacity"), st.integers(0, 14)),
), min_size=1, max_size=20)


def _apply(pager: UVMMemory, op: str, arg):
    """``(result | exception type)`` of one pager call."""
    try:
        return getattr(pager, op)(arg)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@given(_pager_ops, st.randoms(use_true_random=False))
def test_property_any_id_order_equals_deduplicated_ids(ops, rnd):
    """A pager fed shuffled ids with duplicates ends where one fed
    ``np.unique`` of them ends — results, residency, pins, LRU ticks and
    markers — and keeps its pin counter, without touching or keeping the
    caller's array."""
    raw = UVMMemory(N_PAGES * PAGE, 12 * PAGE, PAGE, events=EventLog(record=True))
    ref = UVMMemory(N_PAGES * PAGE, 12 * PAGE, PAGE, events=EventLog(record=True))
    for op, arg in ops:
        if op == "shrink_capacity":
            assert _apply(raw, op, arg * PAGE) == _apply(ref, op, arg * PAGE)
        else:
            ids = arg + rnd.sample(arg, len(arg) // 2)
            rnd.shuffle(ids)
            ids = np.array(ids, dtype=np.int64)
            before = ids.copy()
            assert _apply(raw, op, ids) == _apply(ref, op, np.unique(before))
            assert np.array_equal(ids, before)
            ids[:] = 0  # a retained reference would now corrupt `raw`
        for pager in (raw, ref):
            assert pager.pinned_pages == np.count_nonzero(pager._pinned)
            assert pager.resident_pages == np.count_nonzero(pager._resident)
            assert not (pager._pinned & ~pager._resident).any()
        assert np.array_equal(raw._resident, ref._resident)
        assert np.array_equal(raw._pinned, ref._pinned)
        assert np.array_equal(raw._last_touch, ref._last_touch)
    assert raw._events.events == ref._events.events
