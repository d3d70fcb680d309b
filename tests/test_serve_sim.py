"""Load-test simulator: determinism, warm reuse, the acceptance comparison.

The acceptance test of the serving layer lives here: on an Ascetic engine
pool, a warm-affinity schedule shows *strictly* lower mean latency than
the same trace dispatched FIFO, and the Static Region counters prove the
win came from skipped fills rather than luck.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.ascetic import AsceticEngine
from repro.engines.base import Engine
from repro.gpusim.device import GPUSpec
from repro.gpusim.events import EventLog
from repro.gpusim.faults import CapacitySqueeze, FaultPlan
from repro.serve import (
    EnginePool,
    SLO_SCHEMA,
    RequestStatus,
    ServeConfig,
    fold_slo,
    quick_config,
    report_digest,
    run_load_test,
)
from repro.harness.experiments import PR_TOL, make_workload
from repro.serve.batching import program_for
from repro.serve.request import Request

from conftest import make_spec_for

#: All simulator tests run at the CI-smoke dataset scale.
SCALE = 5e-5


def req(rid, algo, arrival, tenant="t0", graph="GS", deadline=None):
    return Request(request_id=rid, tenant=tenant, graph_id=graph,
                   algorithm=algo, arrival=arrival, deadline=deadline)


def base_config(**overrides):
    kw = dict(seed=0, engine="Ascetic", scale=SCALE, graphs=("GS",),
              algorithms=("BFS", "CC"), queue_capacity=16,
              queue_policy="reject", scheduler="affinity", max_engines=1)
    kw.update(overrides)
    return ServeConfig(**kw)


class TestEnginePool:
    class _Dummy(Engine):
        name = "dummy"

        def __init__(self):
            self.resets = 0

        def reset_for_request(self):
            self.resets += 1

        def _prepare(self, gpu, graph, program):  # pragma: no cover
            pass

        def _iteration(self, gpu, graph, program, state):  # pragma: no cover
            pass

    def test_hit_miss_eviction_accounting(self):
        pool = EnginePool(max_engines=2)
        a, warm = pool.acquire("A", self._Dummy)
        assert not warm and pool.stats.misses == 1
        a2, warm = pool.acquire("A", self._Dummy)
        assert warm and a2 is a and a.resets == 1
        pool.acquire("B", self._Dummy)
        pool.acquire("C", self._Dummy)  # evicts A (LRU)
        assert pool.stats.evictions == 1
        assert pool.warm_keys() == ("B", "C")
        _, warm = pool.acquire("A", self._Dummy)
        assert not warm  # A was evicted: cold again
        with pytest.raises(ValueError):
            EnginePool(max_engines=0)


class TestWarmEngine:
    def test_warm_rerun_skips_the_fill(self, small_web):
        engine = AsceticEngine(spec=make_spec_for(small_web), data_scale=1e-2)
        cold = engine.run(small_web, _bfs())
        assert cold.extra["warm_start"] == 0.0
        assert cold.metrics.phase_seconds["Tprefill"] > 0.0
        engine.reset_for_request()
        warm = engine.run(small_web, _bfs())
        assert warm.extra["warm_start"] == 1.0
        assert warm.extra["static_warm_bytes"] > 0
        assert warm.extra["static_refill_bytes"] == 0.0
        # Identical answer, and the fill phase vanished: warm residency
        # stayed on the device, so the run paid no prefill transfer at all.
        assert np.array_equal(cold.values, warm.values)
        assert warm.metrics.phase_seconds["Tprefill"] == 0.0

    def test_warm_region_invalid_for_a_different_graph(self, small_web,
                                                       small_social):
        engine = AsceticEngine(spec=make_spec_for(small_web), data_scale=1e-2)
        engine.run(small_web, _bfs())
        engine.reset_for_request()
        other = engine.run(small_social, _bfs())
        assert other.extra["warm_start"] == 0.0

    def test_warm_hit_after_capacity_squeeze_refills_only_the_gap(
            self, small_web):
        # A mid-run squeeze shrinks the Static Region; the warm rerun keeps
        # the surviving residency and tops up only what the squeeze dropped
        # — charged as a real (smaller) prefill transfer.
        plan = FaultPlan(squeezes=(
            CapacitySqueeze(start_iteration=1, fraction=0.2),))
        engine = AsceticEngine(spec=make_spec_for(small_web), data_scale=1e-2,
                               fault_plan=plan, seed=3)
        engine.run(small_web, _bfs())
        engine.reset_for_request()
        warm = engine.run(small_web, _bfs())
        assert warm.extra["warm_start"] == 1.0
        assert warm.extra["static_warm_bytes"] > 0     # residency survived
        assert warm.extra["static_refill_bytes"] > 0   # the gap was refilled
        # Refill is strictly less than a cold fill would have been.
        assert (warm.extra["static_refill_bytes"]
                < warm.extra["static_warm_bytes"]
                + warm.extra["static_refill_bytes"])


def _bfs():
    from repro.algorithms import make_program

    return make_program("BFS", source=7)


class TestDeterminism:
    def test_load_test_is_bit_identical_across_runs(self):
        cfg = base_config(n_requests=6, arrival_rate=1.0, deadline=30.0,
                          queue_policy="deadline", max_batch=2,
                          batch_wait=0.1, multi_source=2,
                          algorithms=("BFS", "CC", "SSSP"), max_engines=2)
        a = run_load_test(cfg)
        b = run_load_test(cfg)
        assert a.run_digest() == b.run_digest()
        assert a.trace_payload() == b.trace_payload()
        assert report_digest(a.report) == report_digest(b.report)
        assert a.pool_stats.as_dict() == b.pool_stats.as_dict()

    def test_different_seed_different_trace(self):
        a = run_load_test(base_config(n_requests=5, seed=1))
        b = run_load_test(base_config(n_requests=5, seed=2))
        assert a.run_digest() != b.run_digest()


#: Response hashes taken from the dedicated single-server loop before it was
#: deleted (parent of the one-loop PR): a one-device fleet must reproduce
#: the old server request for request.
GOLDEN_RESPONSES = {
    "quick0": (quick_config(0), "37f99cb6e7b0b4f3"),
    "quick1": (quick_config(1), "e3e8d917176caffe"),
    "quick2": (quick_config(2), "de8c370b31702c58"),
    "quick3": (quick_config(3), "43ea085b5b0e687e"),
    # The bench's s1_* leg shape, overloaded: 33 of 60 requests shed.
    "overload": (replace(quick_config(0), n_requests=60, arrival_rate=5.0,
                         scale=1e-5, deadline=60.0, queue_capacity=32),
                 "5b2f9d680f15e60e"),
    "fifo-reject": (ServeConfig(seed=5, n_requests=16, arrival_rate=2.0,
                                algorithms=("BFS", "CC", "SSSP"), scale=SCALE,
                                deadline=20.0, queue_capacity=4,
                                queue_policy="reject", scheduler="fifo",
                                max_batch=1),
                    "d7307e56119e3585"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RESPONSES))
def test_responses_match_the_deleted_single_server_loop(case):
    config, expected = GOLDEN_RESPONSES[case]
    rows = [(r.request.request_id, r.status.value, r.shed_reason,
             r.start_time, r.finish_time, r.batch_size, r.warm)
            for r in run_load_test(config).responses]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == expected


class TestAcceptance:
    """Affinity beats FIFO on latency, and the counters prove why."""

    @pytest.fixture(scope="class")
    def trace(self):
        # Alternating affinity keys (BFS → plain CSR, SSSP → weighted),
        # back-to-back arrivals so dispatch order is the scheduler's call.
        return tuple(
            req(i, "BFS" if i % 2 == 0 else "SSSP", arrival=0.01 * i)
            for i in range(8)
        )

    @pytest.fixture(scope="class")
    def results(self, trace):
        # max_engines=1: FIFO's alternation evicts the pooled engine every
        # dispatch; affinity groups per key and chains warm hits.  The huge
        # aging window lets affinity reorder freely.
        common = dict(n_requests=len(trace), max_engines=1,
                      aging_seconds=1e9)
        fifo = run_load_test(base_config(scheduler="fifo", **common), trace)
        aff = run_load_test(base_config(scheduler="affinity", **common), trace)
        return fifo, aff

    def test_everything_completes(self, results):
        for res in results:
            assert all(r.status is RequestStatus.COMPLETED
                       for r in res.responses)

    def test_affinity_strictly_lowers_mean_latency(self, results):
        fifo, aff = results
        mean = lambda res: np.mean([r.e2e_seconds for r in res.responses])
        assert mean(aff) < mean(fifo)
        assert (aff.report["latency_seconds"]["e2e"]["mean"]
                < fifo.report["latency_seconds"]["e2e"]["mean"])

    def test_counters_prove_fills_were_skipped(self, results):
        fifo, aff = results
        # FIFO ping-pongs between keys: the single pool slot never helps.
        assert fifo.pool_stats.hits == 0
        assert fifo.pool_stats.warm_runs == 0
        assert fifo.pool_stats.skipped_fill_bytes == 0.0
        assert fifo.pool_stats.misses == 8
        # Affinity chains each key: one cold run per key, the rest warm.
        assert aff.pool_stats.misses == 2
        assert aff.pool_stats.hits == 6
        assert aff.pool_stats.warm_runs == 6
        assert aff.pool_stats.skipped_fill_bytes > 0.0
        assert aff.report["warm"]["hits"] == 6

    def test_same_answers_either_way(self, results):
        fifo, aff = results
        # Scheduling policy must not change any request's computed values.
        assert len(fifo.run_results) == len(aff.run_results) == 8


class TestEdgeCases:
    def test_request_after_drain_starts_immediately(self):
        trace = (req(0, "BFS", arrival=0.0),
                 req(1, "BFS", arrival=1e6))
        res = run_load_test(base_config(n_requests=2), trace)
        late = res.responses[1]
        assert late.completed
        assert late.start_time == pytest.approx(1e6)
        assert late.queue_seconds == pytest.approx(0.0)
        # And the pool still serves it warm: same key as request 0.
        assert late.warm

    def test_deadline_expired_at_admission_is_shed(self):
        trace = (req(0, "BFS", arrival=2.0, deadline=2.0),)
        res = run_load_test(base_config(n_requests=1), trace)
        resp = res.responses[0]
        assert resp.status is RequestStatus.SHED
        assert resp.shed_reason == "deadline-at-admission"
        assert res.report["counts"]["shed"] == 1
        assert res.report["counts"]["completed"] == 0

    def test_deadline_expiry_in_queue(self):
        # Request 1's deadline passes while request 0 occupies the server.
        trace = (req(0, "BFS", arrival=0.0),
                 req(1, "BFS", arrival=0.1, deadline=0.2))
        res = run_load_test(base_config(n_requests=2,
                                        queue_policy="deadline"), trace)
        assert res.responses[0].completed
        assert res.responses[1].status is RequestStatus.SHED
        assert res.responses[1].shed_reason == "deadline-in-queue"


class TestSLOReport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_load_test(base_config(
            n_requests=6, arrival_rate=1.0, deadline=60.0, max_engines=2))

    def test_schema_and_counts_balance(self, result):
        rep = result.report
        assert rep["schema"] == SLO_SCHEMA
        assert "fleet" in rep and "degraded" not in rep
        c = rep["counts"]
        assert c["arrived"] == 6
        assert c["completed"] + c["shed"] == c["arrived"]
        assert c["deadline_met"] <= c["completed"]

    def test_percentiles_are_ordered(self, result):
        for split in ("queue", "service", "e2e"):
            lat = result.report["latency_seconds"][split]
            assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_tenant_sections_match_ledger(self, result):
        tenants = result.report["tenants"]
        assert sorted(tenants) == list(tenants)  # deterministic order
        total = sum(t["arrived"] for t in tenants.values())
        assert total == result.report["counts"]["arrived"]

    def test_fold_is_pure(self, result):
        again = fold_slo(result.events, horizon=result.horizon)
        assert again == result.report


def test_clipped_log_invents_no_tenant_and_no_latency():
    # A log clipped after the arrivals: the shed marker's label is the shed
    # *reason* and the completion has nothing to measure from, so neither
    # may be attributed to a tenant or a latency sample.
    log = EventLog(record=True)
    log.marker("request-shed", "queue-full", 1.0, extra=(("request", 0.0),))
    log.marker("request-complete", "acme", 2.0, extra=(("request", 1.0),))
    report = fold_slo(log.events)
    assert report["tenants"] == {}
    assert report["counts"]["shed"] == 1
    assert report["counts"]["deadline_met"] == 0
    assert report["latency_seconds"]["e2e"]["max"] == 0.0


@pytest.mark.parametrize("kind", ["request-arrive", "request-shed",
                                  "request-start", "request-complete"])
def test_a_lifecycle_marker_without_a_request_id_is_named(kind):
    # A replayed row (``EventLog.emit_row``) may lack the ``request`` extra;
    # the fold names the kind instead of filing it under ``None`` (or
    # raising a ``TypeError`` while sorting ids).
    log = EventLog(record=True)
    log.marker(kind, "acme/GS/BFS", 1.0, extra=(("request", 1.0),))
    log.marker(kind, "acme/GS/BFS", 2.0)
    with pytest.raises(ValueError, match=kind):
        fold_slo(log.events)


class TestCatalog:
    """The workload a dispatch runs: the harness's graph view and GPU spec,
    and the program :func:`~repro.serve.batching.program_for` builds."""

    def test_variants_are_shared_by_identity(self):
        plain = make_workload("GS", "BFS", scale=SCALE).graph
        weighted = make_workload("GS", "SSSP", scale=SCALE).graph
        assert make_workload("GS", "CC", scale=SCALE).graph is plain
        assert make_workload("GS", "SSWP", scale=SCALE).graph is weighted
        assert weighted is not plain
        with pytest.raises(ValueError):
            make_workload("GS", "TRANSPOSED", scale=SCALE)

    def test_sources_fold_into_vertex_range(self):
        w = make_workload("GS", "BFS", scale=SCALE)
        n = w.graph.n_vertices
        r = Request(request_id=0, tenant="t", graph_id="GS", algorithm="BFS",
                    arrival=0.0, sources=(n + 3, 1))
        assert program_for((r,), w).sources == (3, 1)
        # No explicit sources: the engine-style hub pick, in range.
        mate = req(1, "BFS", 0.0)
        hub = program_for((mate, mate), w).sources
        assert hub[0] == hub[1] == w.fresh_program().source
        assert 0 <= hub[0] < n

    def test_program_for_picks_fused_vs_plain(self):
        w = make_workload("GS", "BFS", scale=SCALE)
        single = (req(0, "BFS", 0.0),)
        assert program_for(single, w).name == "BFS"
        batch = (req(0, "BFS", 0.0), req(1, "BFS", 0.1))
        assert program_for(batch, w).name == "BFSx2"
        # A lone PR request runs the harness's program, tolerance included.
        pr = make_workload("GS", "PR", scale=SCALE)
        assert program_for((req(2, "PR", 0.0),), pr).tol == PR_TOL


class TestQuickConfig:
    def test_quick_config_is_seed_parameterized(self):
        assert quick_config(0) == quick_config(0)
        assert quick_config(1).seed == 1


class TestCLIRegistryChoices:
    def test_serve_engine_choices_come_from_the_registry(self):
        from repro.cli import build_parser
        from repro.engines import registry

        parser = build_parser()
        args = parser.parse_args(["serve", "--quick"])
        assert args.command == "serve"
        # The --engine option's choices track the live registry, so a
        # third-party engine registered at runtime is servable untouched.
        serve_parser = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if any(act.dest == "engine" and act.choices
                   for act in a._actions)
            and a.prog.endswith("serve"))
        engine_action = next(act for act in serve_parser._actions
                             if act.dest == "engine")
        assert list(engine_action.choices) == sorted(registry.available())
