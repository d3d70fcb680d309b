"""Behavioural tests for the Ascetic engine and its configuration space."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.validate import reference_bfs_levels
from repro.core.ascetic import AsceticEngine, policy_for
from repro.core.static_region import DEFAULT_CHUNK_BYTES
from repro.engines.subway import SubwayEngine
from repro.graph.properties import best_source

from conftest import TEST_SCALE, make_spec_for


def bfs_for(graph):
    return make_program("BFS", source=best_source(graph))


class TestConfig:
    def test_defaults_match_paper(self):
        eng = AsceticEngine()
        assert eng.k == 0.10  # §3.3 default K
        assert DEFAULT_CHUNK_BYTES == 16 * 1024  # §3.4; a constant, not a switch
        assert eng.fill == "front" and eng.forced_ratio is None
        assert eng.overlap and eng.replacement and eng.adaptive

    def test_policy_auto_selection(self):
        assert policy_for(make_program("PR")) == "last"
        assert policy_for(make_program("BFS")) == "cumulative"
        assert policy_for(make_program("CC")) == "cumulative"


class TestCorrectness:
    @pytest.mark.parametrize("fill", ["front", "rear", "random", "lazy"])
    def test_values_correct_any_fill(self, fill, small_social):
        spec = make_spec_for(small_social)
        eng = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, fill=fill
        )
        res = eng.run(small_social, bfs_for(small_social))
        ref = reference_bfs_levels(small_social, best_source(small_social))
        assert np.array_equal(res.values, ref)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_values_correct_any_schedule(self, overlap, adaptive, small_social):
        spec = make_spec_for(small_social)
        cfg = dict(overlap=overlap, adaptive=adaptive)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg).run(
            small_social, make_program("CC")
        )
        from repro.algorithms.validate import reference_cc_labels

        assert np.array_equal(res.values, reference_cc_labels(small_social))

    def test_deterministic(self, small_social):
        spec = make_spec_for(small_social)
        a = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        b = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.metrics.bytes_h2d == b.metrics.bytes_h2d


class TestRegionAccounting:
    def test_extras_reported(self, small_social):
        spec = make_spec_for(small_social)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        for key in (
            "static_ratio",
            "static_prefill_bytes",
            "static_region_bytes",
            "ondemand_region_bytes",
            "swap_bytes",
            "repartitions",
        ):
            assert key in res.extra

    def test_eager_prefill_counted_and_separated(self, small_social):
        spec = make_spec_for(small_social)
        res = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, fill="front"
        ).run(small_social, bfs_for(small_social))
        assert res.extra["static_prefill_bytes"] > 0
        assert res.processing_bytes_h2d < res.metrics.bytes_h2d

    def test_lazy_fill_no_prefill(self, small_social):
        spec = make_spec_for(small_social)
        res = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, fill="lazy"
        ).run(small_social, bfs_for(small_social))
        assert res.extra["static_prefill_bytes"] == 0

    def test_regions_fit_device(self, small_social):
        spec = make_spec_for(small_social)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE)
        eng.run(small_social, bfs_for(small_social))
        total = (
            eng._static_alloc.nbytes
            + eng._ondemand_alloc.nbytes
            + small_social.vertex_state_bytes
        )
        assert total <= spec.memory_bytes

    def test_forced_ratio_respected(self, small_social):
        spec = make_spec_for(small_social)
        cfg = dict(forced_ratio=0.5, adaptive=False)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(small_social, bfs_for(small_social))
        assert res.extra["static_ratio"] == 0.5
        avail = spec.memory_bytes - small_social.vertex_state_bytes
        assert res.extra["static_region_bytes"] * TEST_SCALE == pytest.approx(
            0.5 * avail, rel=0.05
        )

    def test_whole_dataset_fits_all_static(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=1.5)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE)
        res = eng.run(small_social, bfs_for(small_social))
        assert res.extra["static_ratio"] == 1.0
        # Nothing left to fetch per iteration: processing traffic is just
        # the one-time vertex-state upload.
        vertex_state_charged = small_social.vertex_state_bytes / TEST_SCALE
        assert res.processing_bytes_h2d <= 1.2 * vertex_state_charged


class TestOptimizations:
    def test_static_region_cuts_transfer(self, small_social):
        """vs Subway: the same computation moves fewer processing bytes."""
        spec = make_spec_for(small_social)
        prog = make_program("CC")
        sub = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(small_social, prog)
        asc = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        )
        assert asc.processing_bytes_h2d < 0.8 * sub.processing_bytes_h2d

    def test_overlap_helps(self, small_social):
        spec = make_spec_for(small_social)
        t_seq = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, overlap=False
        ).run(small_social, make_program("CC")).elapsed_seconds
        t_ovl = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, overlap=True
        ).run(small_social, make_program("CC")).elapsed_seconds
        assert t_ovl < t_seq

    def test_faster_than_subway(self, small_social):
        spec = make_spec_for(small_social)
        t_sub = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        ).elapsed_seconds
        t_asc = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        ).elapsed_seconds
        assert t_asc < t_sub

    def test_phase_timers_populated(self, small_social):
        spec = make_spec_for(small_social)
        res = AsceticEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        )
        ph = res.metrics.phase_seconds
        assert ph.get("Tsr", 0) > 0
        assert ph.get("Tfilling", 0) > 0
        assert ph.get("Ttransfer", 0) > 0
        assert ph.get("Tondemand", 0) > 0

    def test_replacement_swaps_bounded(self, small_social):
        """§5: the on-demand window only fits a small share of the data."""
        spec = make_spec_for(small_social)
        res = AsceticEngine(
            spec=spec,
            data_scale=TEST_SCALE,
            fill="front", replacement=True,
        ).run(small_social, make_program("PR", tol=1e-2))
        assert res.extra["swap_bytes"] < 0.25 * res.metrics.bytes_h2d

    def test_fill_policies_within_a_few_percent(self, small_social):
        """§5: front/rear/random initial fills perform alike (< ~10 %)."""
        spec = make_spec_for(small_social)
        times = {}
        for fill in ("front", "rear", "random"):
            times[fill] = AsceticEngine(
                spec=spec, data_scale=TEST_SCALE, fill=fill
            ).run(small_social, make_program("PR", tol=1e-2)).elapsed_seconds
        spread = (max(times.values()) - min(times.values())) / min(times.values())
        assert spread < 0.15
