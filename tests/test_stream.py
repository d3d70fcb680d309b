"""Tests for lane scheduling — the overlap machinery behind Fig. 5."""

import pytest

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import EventLog
from repro.gpusim.stream import Lane


@pytest.fixture()
def clock():
    return VirtualClock()


class TestLane:
    def test_sequential_on_one_lane(self, clock):
        lane = Lane("gpu", clock)
        t1 = lane.submit(2.0)
        t2 = lane.submit(3.0)
        assert (t1, t2) == (2.0, 5.0)

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError):
            Lane("gpu", clock).submit(-1.0)

    def test_submit_does_not_advance_clock(self, clock):
        lane = Lane("gpu", clock)
        lane.submit(5.0)
        assert clock.now == 0.0

    def test_dependency_delays_start(self, clock):
        gpu = Lane("gpu", clock)
        copy = Lane("copy", clock)
        t_copy = copy.submit(4.0)
        t_gpu = gpu.submit(1.0, after=t_copy)
        assert t_gpu == 5.0

    def test_parallel_lanes_overlap(self, clock):
        """Fig. 5's whole point: overlapped total = max, not sum."""
        gpu = Lane("gpu", clock)
        cpu = Lane("cpu", clock)
        t1 = gpu.submit(3.0)  # static compute
        t2 = cpu.submit(2.0)  # gather, concurrent
        assert max(t1, t2) == 3.0

    def test_sequential_chain_is_sum(self, clock):
        """The Subway baseline: each step waits for the previous."""
        gpu = Lane("gpu", clock)
        cpu = Lane("cpu", clock)
        clock.advance_to(cpu.submit(2.0))
        clock.advance_to(gpu.submit(3.0))
        assert clock.now == 5.0

    def test_busy_seconds_accumulates(self, clock):
        lane = Lane("gpu", clock)
        lane.submit(1.0)
        lane.submit(2.0)
        assert lane.log.busy_seconds(lane.key) == 3.0

    def test_idle_seconds(self, clock):
        lane = Lane("gpu", clock)
        lane.submit(1.0)
        clock.advance_to(10.0)
        assert lane.log.idle_seconds(lane.key, clock.now) == 9.0

    def test_idle_never_negative(self, clock):
        lane = Lane("gpu", clock)
        lane.submit(4.0)  # busy beyond now
        assert lane.log.idle_seconds(lane.key, clock.now) == 0.0

    def test_n_ops(self, clock):
        lane = Lane("gpu", clock)
        lane.submit(1.0)
        lane.submit(2.0)
        assert lane.log.lane_stats[lane.key].n_ops == 2

    def test_empty_op_short_circuited(self, clock):
        """Zero work with no counters leaves no trace anywhere (uniform)."""
        lane = Lane("gpu", clock)
        end = lane.submit(0.0, label="noop")
        assert end == 0.0
        assert lane.busy_until == 0.0
        assert len(lane.log.events) == 0 and lane.log.lane_stats == {}

    def test_zero_duration_with_counters_still_counted(self, clock):
        """Counter-bearing instant work emits an event but no span time."""
        lane = Lane("copy", clock)
        lane.submit(0.0, label="meta", counters={"h2d_transfers": 1})
        assert lane.log.lane_stats[lane.key].n_ops == 1
        assert lane.log.busy_seconds(lane.key) == 0.0
        assert lane.log.metrics.h2d_transfers == 1

    def test_work_after_clock_advances(self, clock):
        lane = Lane("gpu", clock)
        clock.advance_to(7.0)
        assert lane.submit(1.0) == 8.0

    def test_span_recording(self, clock):
        lane = Lane("gpu", clock, log=EventLog(record=True))
        lane.submit(2.0, label="kernel")
        (span,) = lane.log.spans()
        assert (span.lane, span.label) == ("gpu", "kernel")

    def test_zero_duration_not_logged(self, clock):
        lane = Lane("gpu", clock, log=EventLog(record=True))
        lane.submit(0.0, label="noop")
        lane.submit(0.0, label="counted", counters={"h2d_transfers": 1})
        assert lane.log.spans() == []
