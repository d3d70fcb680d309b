"""Timeline (span-level) tests: the Fig. 5 overlap claims hold for real.

These run engines with ``record_events=True`` and inspect the span
timeline folded from the event log — stronger evidence than comparing
totals.
"""

from repro.algorithms import make_program
from repro.core.ascetic import AsceticConfig, AsceticEngine
from repro.engines.subway import SubwayEngine

from conftest import TEST_SCALE, make_spec_for


def overlap_seconds(a, b):
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def lane_overlap(result, lane_a, lane_b):
    """Seconds during which ``lane_a`` and ``lane_b`` are both busy."""
    spans = result.event_log.spans()
    return sum(overlap_seconds(a, b)
               for a in spans if a.lane == lane_a
               for b in spans if b.lane == lane_b)


class TestAsceticOverlap:
    def test_static_compute_overlaps_gather(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        result = AsceticEngine(spec=spec, data_scale=TEST_SCALE,
                               record_events=True).run(
            small_social, make_program("CC"))
        assert lane_overlap(result, "gpu", "cpu") > 0
        # The aggregate signature of overlap — total elapsed strictly below
        # the busy-time sum of the lanes.
        ph = result.metrics.phase_seconds
        lane_work = ph.get("Tsr", 0) + ph.get("Tondemand", 0) + ph.get(
            "Tfilling", 0
        ) + ph.get("Ttransfer", 0)
        assert result.elapsed_seconds < lane_work

    def test_sequential_mode_does_not_overlap(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        cfg = AsceticConfig(overlap=False, replacement=False)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE, config=cfg).run(
            small_social, make_program("CC")
        )
        ph = res.metrics.phase_seconds
        lane_work = (
            ph.get("Tsr", 0)
            + ph.get("Tondemand", 0)
            + ph.get("Tfilling", 0)
            + ph.get("Ttransfer", 0)
        )
        # Sequential: elapsed ≥ the sum of the pipeline phases (plus maps).
        assert res.elapsed_seconds >= lane_work * 0.999


class TestSubwaySequentiality:
    def test_phases_serialize(self, small_social):
        res = SubwayEngine(
            spec=make_spec_for(small_social, edge_fraction=0.4),
            data_scale=TEST_SCALE, record_events=True,
        ).run(small_social, make_program("CC"))
        assert lane_overlap(res, "gpu", "cpu") == 0
        ph = res.metrics.phase_seconds
        chain = ph.get("Tfilling", 0) + ph.get("Ttransfer", 0) + ph.get("Tcompute", 0)
        assert res.elapsed_seconds >= chain * 0.999

    def test_iteration_records_monotone(self, small_social):
        res = SubwayEngine(
            spec=make_spec_for(small_social), data_scale=TEST_SCALE
        ).run(small_social, make_program("CC"))
        starts = [r.t_start for r in res.per_iteration]
        ends = [r.t_end for r in res.per_iteration]
        assert starts == sorted(starts)
        assert all(e1 <= s2 for e1, s2 in zip(ends, starts[1:]))


class TestPhaseConsistency:
    def test_phase_totals_bound_elapsed(self, small_social):
        """No phase can exceed wall-clock; their max is a lower bound."""
        spec = make_spec_for(small_social, edge_fraction=0.4)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("PR", tol=1e-2)
        )
        for phase, seconds in res.metrics.phase_seconds.items():
            assert seconds <= res.elapsed_seconds * 1.0001, phase

    def test_bytes_match_phase_presence(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        )
        assert (res.metrics.bytes_h2d > 0) == (
            res.metrics.phase_seconds.get("Ttransfer", 0) > 0
            or res.metrics.phase_seconds.get("Tprefill", 0) > 0
        )
