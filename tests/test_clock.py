"""Tests for the virtual clock."""

import pytest

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import Span


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.advance(0.5) == 2.0

    def test_advance_zero_ok(self):
        c = VirtualClock()
        c.advance(0.0)
        assert c.now == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_future(self):
        c = VirtualClock()
        c.advance_to(3.0)
        assert c.now == 3.0

    def test_advance_to_past_is_noop(self):
        c = VirtualClock(now=5.0)
        c.advance_to(2.0)
        assert c.now == 5.0

    def test_reset(self):
        c = VirtualClock()
        c.advance(1.0)
        c.reset()
        assert c.now == 0.0


class TestSpans:
    def test_span_duration(self):
        assert Span("gpu", "k", 1.0, 3.5).duration == 2.5
