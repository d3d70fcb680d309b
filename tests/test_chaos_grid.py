"""End-to-end chaos: every engine × BFS/PR under the standard fault plan.

The acceptance contract: under ``standard_plan()`` every engine completes,
its event log validates, and its vertex values are bit-identical to the
fault-free run — chaos moves the clock, never the answer.  Plus the
determinism guarantees: same seed ⇒ identical runs (serial, parallel, and
through ``run_grid``), and chaos fields round-trip through ``RunSpec``
without disturbing pre-chaos cache keys.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpusim.events import FAULT_KINDS, validate_log
from repro.gpusim.faults import FaultPlan, standard_fleet_plan, standard_plan
from repro.harness.experiments import make_workload, run_workload
from repro.runner import RunSpec, run_grid

from event_log_oracles import rows

SCALE = 5e-5
ENGINES = ("PT", "UVM", "Subway", "Ascetic", "Hybrid", "Sharded")
#: ``standard_plan()`` names no Hybrid buffer, so Hybrid's case adds its
#: two.  The standard plan itself stays as it is: its fingerprint seeds
#: every chaos RNG stream, so editing it would move every chaos digest.
PLANS = {
    "Hybrid": dataclasses.replace(
        standard_plan(), alloc_failures=("hybrid_cache", "hybrid_staging")),
}


def _fingerprint(result):
    return (
        result.values.tobytes(),
        result.iterations,
        result.elapsed_seconds,
        tuple(sorted(result.metrics.as_dict().items())),
        tuple(sorted(result.extra.items())),
    )


class TestChaosGrid:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algo", ("BFS", "PR"))
    def test_chaos_run_matches_fault_free(self, engine, algo):
        w = make_workload("GS", algo, scale=SCALE)
        baseline = run_workload(w, engine)
        chaos = run_workload(w, engine, record_events=True,
                             fault_plan=PLANS.get(engine, standard_plan()),
                             seed=11)
        assert np.array_equal(chaos.values, baseline.values)
        assert chaos.iterations == baseline.iterations
        validate_log(chaos.event_log, metrics=chaos.metrics,
                     horizon=chaos.elapsed_seconds)
        # The standard plan guarantees at least its alloc fault and the
        # startup degradation window fired.
        assert chaos.extra["fault_alloc_fail"] >= 1.0
        assert chaos.extra["fault_degradation_windows"] >= 1.0

    @pytest.mark.parametrize("algo", ("BFS", "PR"))
    def test_sharded_survives_the_fleet_plan(self, algo):
        # One device lost halfway through the fault-free horizon, one
        # peer-link window after it.
        w = make_workload("GS", algo, scale=SCALE)
        baseline = run_workload(w, "Sharded", devices=4)
        horizon = baseline.elapsed_seconds
        plan = standard_fleet_plan(11, 4, down_at=horizon / 2,
                                   degrade_start=horizon * 0.6,
                                   degrade_end=horizon * 0.8)
        chaos = run_workload(w, "Sharded", devices=4, record_events=True,
                             fault_plan=plan, seed=11)
        assert chaos.values.tobytes() == baseline.values.tobytes()
        validate_log(chaos.event_log, metrics=chaos.metrics,
                     horizon=chaos.elapsed_seconds)
        assert chaos.extra["device_losses"] >= 1.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transfer_faults_only_add_time(self, engine):
        # Pure transfer faults never change the schedule's *shape* (no
        # repartitioning, no shrinking — those can accidentally improve
        # overlap), so they can only add retry/backoff time.
        plan = FaultPlan(transfer_fail_rate=0.1, max_retries=8)
        w = make_workload("GS", "BFS", scale=SCALE)
        baseline = run_workload(w, engine)
        chaos = run_workload(w, engine, fault_plan=plan, seed=11)
        assert np.array_equal(chaos.values, baseline.values)
        assert chaos.elapsed_seconds >= baseline.elapsed_seconds
        if chaos.metrics.transfer_faults:
            assert chaos.elapsed_seconds > baseline.elapsed_seconds


class TestChaosDeterminism:
    def test_same_seed_identical_runs(self):
        w = make_workload("GS", "BFS", scale=SCALE)
        a = run_workload(w, "Ascetic", fault_plan=standard_plan(), seed=11)
        b = run_workload(w, "Ascetic", fault_plan=standard_plan(), seed=11)
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_diverges(self):
        # High rates so two seeds almost surely inject different faults.
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        w = make_workload("GS", "BFS", scale=SCALE)
        a = run_workload(w, "Subway", fault_plan=plan, seed=1)
        b = run_workload(w, "Subway", fault_plan=plan, seed=2)
        assert np.array_equal(a.values, b.values)  # answers never change
        assert a.elapsed_seconds != b.elapsed_seconds

    def test_fault_events_visible_in_recorded_log(self):
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        w = make_workload("GS", "BFS", scale=SCALE)
        res = run_workload(w, "Subway", record_events=True,
                           fault_plan=plan, seed=1)
        kinds = {e.kind for e in rows(res.event_log.events)}
        assert kinds & FAULT_KINDS
        assert res.metrics.retry_seconds > 0.0


class TestChaosThroughRunner:
    def test_serial_parallel_and_cache_agree_under_chaos(self, tmp_path):
        spec = RunSpec("GS", "BFS", "Ascetic", scale=SCALE,
                       seed=11, fault_plan=standard_plan())
        serial = run_grid([spec], jobs=1)
        parallel = run_grid([spec], jobs=2, cache=tmp_path)
        cached = run_grid([spec], jobs=1, cache=tmp_path)
        assert serial.cells[0].status == "ok"
        assert parallel.cells[0].status == "ok"
        assert cached.cells[0].status == "cached"
        fp = _fingerprint(serial.cells[0].result)
        assert fp == _fingerprint(parallel.cells[0].result)
        assert fp == _fingerprint(cached.cells[0].result)

    def test_spec_round_trips_chaos_fields(self):
        spec = RunSpec("GS", "BFS", "Ascetic", scale=SCALE,
                       seed=11, fault_plan=standard_plan())
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_chaos_fields_do_not_disturb_plain_cache_keys(self):
        plain = RunSpec("GS", "BFS", "Ascetic", scale=SCALE)
        assert "seed" not in plain.to_dict()
        assert "fault_plan" not in plain.to_dict()
        chaos = RunSpec("GS", "BFS", "Ascetic", scale=SCALE,
                        seed=11, fault_plan=standard_plan())
        assert chaos.cache_key() != plain.cache_key()
