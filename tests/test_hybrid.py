"""Tests for the Hybrid engine: hotness-driven migrate/gather/direct.

The engine's claim is twofold.  Correctness: it is a pure data-movement
policy, so results are bit-identical to every other engine and runs are
deterministic.  Performance (the Fig. 9/11-style claim): by choosing the
transfer path per chunk from measured hotness it strictly beats both the
gather-only (Subway) and region+gather (Ascetic) fixed policies on
memory-constrained cells.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.replacement import HotnessTable
from repro.engines.base import AccessPath
from repro.engines.hybrid import HybridEngine, HybridPolicy
from repro.graph.csr import ChunkRuns
from repro.graph.properties import best_source
from repro.harness.experiments import make_workload, run_workload

from conftest import TEST_SCALE, make_spec_for
from event_log_oracles import rows

SCALE = 5e-5


def _constrained_workload(abbr, algo, frac):
    """A cell whose device holds ``frac`` of the edge array (Fig. 11 style)."""
    base = make_workload(abbr, algo, scale=SCALE)
    g = base.graph
    cap = int(g.edge_array_bytes * frac) + g.vertex_state_bytes * 2
    return make_workload(abbr, algo, scale=SCALE,
                         memory_bytes=max(cap, 4096))


class TestConstruction:
    def test_defaults(self):
        eng = HybridEngine()
        assert eng.cache_fraction == 0.75
        assert eng.reuse_horizon == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridEngine(chunk_bytes=0)
        with pytest.raises(ValueError):
            HybridEngine(cache_fraction=0.99)
        with pytest.raises(ValueError):
            HybridEngine(cache_fraction=-0.1)
        with pytest.raises(ValueError):
            HybridEngine(reuse_horizon=0)


class TestCorrectness:
    def test_matches_reference_bfs(self, small_social):
        from repro.algorithms.validate import reference_bfs_levels

        src = best_source(small_social)
        eng = HybridEngine(spec=make_spec_for(small_social),
                           data_scale=TEST_SCALE)
        res = eng.run(small_social, make_program("BFS", source=src))
        assert np.array_equal(res.values,
                              reference_bfs_levels(small_social, src))

    def test_deterministic_across_runs(self):
        w = _constrained_workload("GS", "SSSP", 0.15)
        a = run_workload(w, "Hybrid")
        b = run_workload(w, "Hybrid")
        assert np.array_equal(a.values, b.values)
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.metrics.bytes_h2d == b.metrics.bytes_h2d
        assert a.metrics.bytes_direct == b.metrics.bytes_direct
        assert a.extra == b.extra


class TestWinCells:
    """Hybrid strictly beats BOTH fixed policies on constrained cells."""

    @pytest.mark.parametrize("abbr,algo,frac", [
        ("GS", "SSSP", 0.15),
        ("FK", "PR", 0.15),
        ("GS", "BFS", 0.05),
    ])
    def test_beats_ascetic_and_subway(self, abbr, algo, frac):
        w = _constrained_workload(abbr, algo, frac)
        hybrid = run_workload(w, "Hybrid")
        ascetic = run_workload(w, "Ascetic")
        subway = run_workload(w, "Subway")
        assert hybrid.elapsed_seconds < ascetic.elapsed_seconds
        assert hybrid.elapsed_seconds < subway.elapsed_seconds
        # Still the same answer as the engines it beats.
        assert np.array_equal(hybrid.values, ascetic.values)
        assert np.array_equal(hybrid.values, subway.values)


class TestPathUsage:
    def test_all_three_paths_exercised(self):
        # PR's dense early iterations gather, the hot working set migrates
        # into the cache, and the sparse convergence tail goes zero-copy.
        w = _constrained_workload("FK", "PR", 0.15)
        res = run_workload(w, "Hybrid")
        assert res.extra["migrate_bytes"] > 0
        assert res.extra["gather_bytes"] > 0
        assert res.extra["direct_bytes"] > 0
        assert res.metrics.bytes_direct > 0
        assert res.metrics.direct_accesses >= 0

    def test_decisions_visible_in_trace(self):
        w = _constrained_workload("FK", "PR", 0.15)
        res = run_workload(w, "Hybrid", record_events=True)
        markers = [e for e in rows(res.event_log.events) if e.kind == "access-path"]
        summaries = [m for m in markers if m.label == "Hybrid:chunk"]
        assert len(summaries) == res.iterations
        per_chunk = {m.label for m in markers} - {"Hybrid:chunk"}
        # A hybrid plan on this cell uses more than one non-resident path.
        assert len(per_chunk & {"migrate", "gather", "direct"}) >= 2

    def test_migration_fills_the_cache(self):
        w = _constrained_workload("FK", "PR", 0.15)
        res = run_workload(w, "Hybrid")
        assert res.extra["migrated_chunks"] > 0
        assert 0 < res.extra["resident_chunks"] <= res.extra["cache_chunks"]


class TestPolicyUnit:
    """HybridPolicy in isolation, with a hand-built region."""

    def _policy(self, small_web, reuse_horizon=8, region_chunk=4096):
        from repro.core.static_region import StaticRegion
        from repro.gpusim.device import GPUSpec

        region = StaticRegion(small_web, capacity_bytes=1 << 16,
                              fill="lazy", chunk_bytes=region_chunk)
        spec = GPUSpec(memory_bytes=1 << 20)
        return HybridPolicy(spec, region, chunk_bytes=16384,
                            reuse_horizon=reuse_horizon), region

    @staticmethod
    def _plan(policy, ids, touch=None, hot=None):
        """The run plan for chunk ``ids``, one path code per id.

        No ``touch``: one active vertex per chunk; no ``hot``: no history.
        """
        touch = np.ones(len(ids)) if touch is None else touch
        if hot is None:
            hot = HotnessTable(policy.region.n_chunks, policy="cumulative")
        runs, first = ChunkRuns.from_ids(ids, touch, hot.cumulative_at(ids))
        plan = policy.plan(runs, touch[first], hot)
        assert np.array_equal(plan.runs.ids(), ids)
        return np.repeat(plan.paths, plan.runs.lengths)

    def test_resident_chunks_stay_resident(self, small_web):
        policy, region = self._policy(small_web)
        region.promote_vertices(np.ones(small_web.n_vertices, dtype=bool))
        ids = np.nonzero(region.resident)[0][:4]
        plan = self._plan(policy, ids)
        assert (plan == int(AccessPath.RESIDENT)).all()

    def test_sparse_one_touch_goes_direct(self, small_web):
        policy, _ = self._policy(small_web)
        # One candidate chunk, one touched vertex, tiny footprint, no
        # history: the fixed DMA/gather setups are unamortized, zero-copy
        # has none — the EMOGI regime.
        policy.bytes_per_touch = 256.0
        policy.migrate_budget = 100
        plan = self._plan(policy, np.array([0]))
        assert plan[0] == int(AccessPath.DIRECT)

    def test_measured_reuse_flips_to_migrate(self, small_web):
        policy, region = self._policy(small_web)
        # Half-chunk footprint: direct access pays for most of the chunk at
        # half bandwidth anyway, so measured reuse amortizes the migration
        # and flips the single cold candidate from DIRECT to MIGRATE.
        policy.bytes_per_touch = 8192.0
        policy.migrate_budget = 100
        hot = HotnessTable(region.n_chunks, policy="cumulative")
        touch = np.zeros(region.n_chunks, dtype=np.int64)
        touch[0] = 1
        for _ in range(policy.reuse_horizon):
            hot.update(touch)
        cold = self._plan(policy, np.array([0]))
        assert cold[0] == int(AccessPath.DIRECT)
        plan = self._plan(policy, np.array([0]), hot=hot)
        assert plan[0] == int(AccessPath.MIGRATE)

    def test_dense_footprint_goes_gather(self, small_web):
        policy, region = self._policy(small_web, region_chunk=1024)
        # A wide round of quarter-chunk footprints: the gather setup
        # amortizes across the many candidates, needed bytes ship at bulk
        # bandwidth, and no chunk has reuse history worth a migration.
        policy.bytes_per_touch = 4096.0
        policy.migrate_budget = 0
        ids = np.arange(64)
        assert region.n_chunks > 64  # candidates stay in range
        plan = self._plan(policy, ids)
        assert (plan == int(AccessPath.GATHER)).all()

    def test_migrate_budget_bounds_migration(self, small_web):
        policy, region = self._policy(small_web)
        policy.bytes_per_touch = 8192.0
        policy.migrate_budget = 2
        hot = HotnessTable(region.n_chunks, policy="cumulative")
        touch = np.zeros(region.n_chunks, dtype=np.int64)
        ids = np.arange(8)
        touch[ids] = 1
        for _ in range(policy.reuse_horizon):
            hot.update(touch)
        plan = self._plan(policy, ids, hot=hot)
        assert int((plan == int(AccessPath.MIGRATE)).sum()) == 2
        # Overflow candidates fall to a real fallback path, never RESIDENT.
        rest = plan[plan != int(AccessPath.MIGRATE)]
        assert set(np.unique(rest)) <= {int(AccessPath.GATHER),
                                        int(AccessPath.DIRECT)}


class TestWarmStart:
    def test_cache_carries_across_requests(self):
        # FK/PR migrates chunks (see TestPathUsage), so the second request
        # inherits a non-empty cache.
        w = _constrained_workload("FK", "PR", 0.15)
        eng = HybridEngine(spec=w.spec, data_scale=SCALE)
        cold = eng.run(w.graph, w.fresh_program())
        assert cold.extra["warm_start"] == 0.0
        assert cold.extra["resident_chunks"] > 0
        eng.reset_for_request(keep_static=True)
        warm = eng.run(w.graph, w.fresh_program())
        assert warm.extra["warm_start"] == 1.0
        assert warm.extra["static_warm_bytes"] > 0
        assert np.array_equal(cold.values, warm.values)

    def test_cold_reset_drops_the_cache(self):
        w = _constrained_workload("GS", "BFS", 0.15)
        eng = HybridEngine(spec=w.spec, data_scale=SCALE)
        eng.run(w.graph, w.fresh_program())
        eng.reset_for_request(keep_static=False)
        again = eng.run(w.graph, w.fresh_program())
        assert again.extra["warm_start"] == 0.0


class TestGatherChainAboveTheRoundLimit:
    """Regression: above ``ROUND_LOOP_LIMIT`` gather rounds Hybrid collapsed
    its chain to one gather, one H2D and one kernel of the whole volume,
    each waiting for the previous one — the pipeline serialised and 64
    latencies / gather set-ups / launches vanished, so the iteration's
    modelled time jumped by +149 % between 64 and 65 rounds.  It now pays
    what Ascetic pays (``stream_rounds``' aggregate)."""

    ITERATION = 6  # GS/BFS's widest frontier: ~90 KB through the gather path
    CHAIN_PHASES = ("Tfilling", "Ttransfer", "Tondemand")

    @classmethod
    def _run(cls, staging=None):
        """GS/BFS up to ITERATION, the staging buffer squeezed to ``staging``
        bytes for that iteration; ``(its events, its seconds, its gather
        bytes)``."""
        w = _constrained_workload("GS", "BFS", 0.05)
        eng = HybridEngine(spec=w.spec, data_scale=w.scale, record_events=True,
                           max_iterations=cls.ITERATION + 1)
        before = []

        def hook(engine, gpu, graph, state):
            if state.iteration == cls.ITERATION:
                before.append(engine._path_bytes[AccessPath.GATHER])
                if staging is not None:
                    gpu.memory.resize(engine._staging_alloc, staging)

        eng.iteration_hook = hook
        res = eng.run(w.graph, w.fresh_program())
        events = [e for e in rows(res.event_log.events) if e.iteration == cls.ITERATION]
        record = res.per_iteration[cls.ITERATION]
        gathered = round((res.extra["gather_bytes"] - before[0]) * w.scale)
        return events, record.t_end - record.t_start, gathered

    @classmethod
    def _squeezed(cls, gathered, rounds):
        staging = -(-gathered // rounds)
        assert -(-gathered // staging) == rounds
        return cls._run(staging)

    @staticmethod
    def _phase_seconds(events, phase):
        return sum(e.duration for e in events if e.phase == phase)

    def test_65_rounds_cost_what_64_rounds_cost(self, monkeypatch):
        from repro.gpusim import rounds

        _, _, gathered = self._run()
        assert rounds.ROUND_LOOP_LIMIT == 64
        _, seconds_64, _ = self._squeezed(gathered, 64)
        events_65, seconds_65, _ = self._squeezed(gathered, 65)
        transfers = sum(e.h2d_transfers for e in events_65
                        if e.label.startswith("od-transfer"))
        assert transfers >= 65
        assert seconds_65 == pytest.approx(seconds_64, rel=0.05)

        # The same 65 rounds, looped op by op: identical stage totals.
        monkeypatch.setattr(rounds, "ROUND_LOOP_LIMIT", 10**9)
        looped, seconds_looped, _ = self._squeezed(gathered, 65)
        assert sum(e.label == "od-transfer" for e in looped) == 65
        for phase in self.CHAIN_PHASES:
            assert self._phase_seconds(events_65, phase) == pytest.approx(
                self._phase_seconds(looped, phase), rel=1e-12)
        assert seconds_65 == pytest.approx(seconds_looped, rel=0.05)
