"""Tests for the device-memory allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.memory import DeviceMemory, GPUOutOfMemory


def used(m):
    """Bytes allocated: what is not available."""
    return m.capacity - m.available


class TestAllocator:
    def test_alloc_and_accounting(self):
        m = DeviceMemory(1000)
        a = m.alloc("a", 400)
        assert used(m) == 400 and m.available == 600
        b = m.alloc("b", 600)
        assert m.available == 0
        m.free(a)
        assert m.available == 400
        m.free(b)
        assert used(m) == 0

    def test_oom_raises(self):
        m = DeviceMemory(100)
        with pytest.raises(GPUOutOfMemory):
            m.alloc("big", 101)

    def test_oom_after_partial_fill(self):
        m = DeviceMemory(100)
        m.alloc("a", 60)
        with pytest.raises(GPUOutOfMemory):
            m.alloc("b", 41)

    def test_duplicate_name_rejected(self):
        m = DeviceMemory(100)
        m.alloc("x", 10)
        with pytest.raises(ValueError):
            m.alloc("x", 10)

    def test_name_reusable_after_free(self):
        m = DeviceMemory(100)
        a = m.alloc("x", 10)
        m.free(a)
        m.alloc("x", 20)
        assert used(m) == 20

    def test_double_free_rejected(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 10)
        m.free(a)
        with pytest.raises(ValueError):
            m.free(a)

    def test_zero_sized_alloc(self):
        m = DeviceMemory(10)
        a = m.alloc("z", 0)
        assert used(m) == 0
        m.free(a)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory(10).alloc("n", -1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)

    def test_live_allocations_snapshot(self):
        m = DeviceMemory(100)
        m.alloc("a", 10)
        m.alloc("b", 20)
        assert m.live_allocations() == {"a": 10, "b": 20}


class TestResize:
    def test_grow(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 10)
        m.resize(a, 50)
        assert used(m) == 50 and a.nbytes == 50

    def test_shrink(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 80)
        m.resize(a, 30)
        assert m.available == 70

    def test_grow_beyond_capacity_rejected(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 50)
        m.alloc("b", 40)
        with pytest.raises(GPUOutOfMemory):
            m.resize(a, 70)

    def test_resize_freed_rejected(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 10)
        m.free(a)
        with pytest.raises(ValueError):
            m.resize(a, 20)

    def test_resize_to_zero(self):
        m = DeviceMemory(100)
        a = m.alloc("a", 10)
        m.resize(a, 0)
        assert used(m) == 0


@given(st.lists(st.tuples(st.sampled_from("grow shrink free".split()), st.integers(0, 50)), max_size=30))
def test_property_accounting_never_negative(ops):
    """Arbitrary alloc/resize/free sequences keep 0 <= used <= capacity."""
    m = DeviceMemory(500)
    live = []
    counter = 0
    for op, size in ops:
        try:
            if op == "grow":
                live.append(m.alloc(f"a{counter}", size))
                counter += 1
            elif op == "shrink" and live:
                m.resize(live[-1], size)
            elif op == "free" and live:
                m.free(live.pop())
        except GPUOutOfMemory:
            pass
        assert 0 <= used(m) <= m.capacity
        assert used(m) == sum(a.nbytes for a in live)
