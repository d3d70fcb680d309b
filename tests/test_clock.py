"""Tests for the virtual clock."""

from repro.gpusim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_to_future(self):
        c = VirtualClock()
        c.advance_to(3.0)
        assert c.now == 3.0

    def test_advance_to_past_is_noop(self):
        c = VirtualClock(now=5.0)
        c.advance_to(2.0)
        assert c.now == 5.0
