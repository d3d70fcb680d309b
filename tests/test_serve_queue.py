"""Serving-layer unit tests: requests, admission queue, schedulers."""

import pytest

from repro.serve import (
    AdmissionQueue,
    AffinityScheduler,
    FifoScheduler,
    QUEUE_POLICIES,
    engine_key,
    generate_requests,
    make_scheduler,
    variant_for,
)
from repro.serve.request import Request


def req(rid, tenant="t0", graph="GS", algo="BFS", arrival=0.0,
        priority=0, deadline=None, sources=None):
    return Request(request_id=rid, tenant=tenant, graph_id=graph,
                   algorithm=algo, arrival=arrival, priority=priority,
                   deadline=deadline, sources=sources)


class TestRequestModel:
    def test_variants_share_and_split_warmth(self):
        # BFS/CC/PR stream the same plain CSR: warmth transfers.
        assert variant_for("BFS") == variant_for("CC") == variant_for("PR")
        # SSSP/KCORE/PR-PULL each need different bytes.
        assert variant_for("SSSP") == "weighted"
        assert variant_for("KCORE") == "sym"
        assert variant_for("PR-PULL") == "rev"
        with pytest.raises(ValueError):
            variant_for("DFS")

    def test_engine_key_pairs_graph_and_variant(self):
        assert engine_key(req(0, graph="FK", algo="cc")) == ("FK", "plain")
        assert engine_key(req(1, graph="FK", algo="SSSP")) == ("FK", "weighted")

    def test_expired_is_inclusive(self):
        r = req(0, arrival=1.0, deadline=5.0)
        assert not r.expired(4.999)
        assert r.expired(5.0)
        assert not req(1).expired(1e9)  # best-effort never expires

    def test_generator_is_a_pure_function_of_its_arguments(self):
        kw = dict(n_requests=20, seed=9, arrival_rate=2.0,
                  graphs=("GS", "FK"), algorithms=("BFS", "SSSP"),
                  tenants=("a", "b"), priorities=(0, 1), deadline=10.0,
                  multi_source=3)
        a = generate_requests(**kw)
        b = generate_requests(**kw)
        assert a == b
        assert a != generate_requests(**{**kw, "seed": 10})

    def test_generator_trace_shape(self):
        trace = generate_requests(n_requests=30, seed=3, arrival_rate=5.0,
                                  graphs=("GS",), algorithms=("BFS", "CC"),
                                  deadline=4.0, multi_source=2)
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals) and arrivals[0] > 0.0
        for r in trace:
            assert r.deadline == pytest.approx(r.arrival + 4.0)
            if r.algorithm == "BFS":
                assert r.sources is not None and len(r.sources) == 2
            else:  # CC is not batchable: no explicit sources drawn
                assert r.sources is None

    def test_generator_validates_inputs(self):
        with pytest.raises(ValueError):
            generate_requests(5, seed=0, arrival_rate=0.0,
                              graphs=("GS",), algorithms=("BFS",))
        with pytest.raises(ValueError):
            generate_requests(5, seed=0, arrival_rate=1.0,
                              graphs=(), algorithms=("BFS",))
        with pytest.raises(ValueError):
            generate_requests(5, seed=0, arrival_rate=1.0,
                              graphs=("GS",), algorithms=("DFS",))


class TestAdmissionQueue:
    def test_reject_policy_sheds_the_newcomer(self):
        q = AdmissionQueue(capacity=2, policy="reject")
        assert q.offer(req(0), 0.0) == (True, [])
        assert q.offer(req(1), 0.0) == (True, [])
        admitted, shed = q.offer(req(2), 0.0)
        assert not admitted
        assert [(v.request_id, why) for v, why in shed] == [(2, "queue-full")]
        assert [r.request_id for r in q.items] == [0, 1]

    def test_zero_capacity_queue_sheds_everything(self):
        for policy in QUEUE_POLICIES:
            q = AdmissionQueue(capacity=0, policy=policy)
            for rid in range(3):
                admitted, shed = q.offer(req(rid, deadline=100.0), 0.0)
                assert not admitted
                assert shed[-1][1] == "queue-full"
            assert len(q) == 0 and not q
            assert q.account("t0").shed == 3

    def test_deadline_policy_purges_expired_first(self):
        q = AdmissionQueue(capacity=2, policy="deadline")
        q.offer(req(0, deadline=1.0), 0.0)
        q.offer(req(1, deadline=100.0), 0.0)
        admitted, shed = q.offer(req(2, deadline=100.0), 5.0)
        assert admitted
        assert [(v.request_id, why) for v, why in shed] == [
            (0, "deadline-in-queue")]

    def test_expired_at_admission_shed_under_every_policy(self):
        for policy in QUEUE_POLICIES:
            q = AdmissionQueue(capacity=8, policy=policy)
            admitted, shed = q.offer(req(0, arrival=5.0, deadline=5.0), 5.0)
            assert not admitted
            assert shed == [(shed[0][0], "deadline-at-admission")]
            assert len(q) == 0

    def test_purge_expired_while_queued(self):
        q = AdmissionQueue(capacity=8, policy="reject")
        q.offer(req(0, deadline=2.0), 0.0)
        q.offer(req(1, deadline=9.0), 0.0)
        q.offer(req(2), 0.0)
        purged = q.purge_expired(3.0)
        assert [(v.request_id, why) for v, why in purged] == [
            (0, "deadline-in-queue")]
        assert [r.request_id for r in q.items] == [1, 2]

    def test_tenant_ledger_balances(self):
        q = AdmissionQueue(capacity=1, policy="reject")
        q.offer(req(0, tenant="a"), 0.0)
        q.offer(req(1, tenant="a"), 0.0)   # shed: full
        q.take(q.items[0])
        q.note_completed(req(0, tenant="a"), 3.5)
        acct = q.account("a")
        assert acct.submitted == acct.admitted + acct.shed == 2
        assert acct.completed == 1
        assert acct.service_seconds == pytest.approx(3.5)
        assert set(acct.as_dict()) == {"submitted", "admitted", "shed",
                                       "completed", "service_seconds"}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=-1)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4, policy="lifo")


class TestSchedulers:
    def test_fifo_orders_by_priority_then_arrival_then_id(self):
        items = [req(2, arrival=1.0), req(0, arrival=2.0, priority=1),
                 req(1, arrival=1.0)]
        sched = FifoScheduler()
        assert sched.select(items, now=5.0)[0].request_id == 0  # priority wins
        items = [req(2, arrival=1.0), req(1, arrival=1.0)]
        assert sched.select(items, now=5.0)[0].request_id == 1  # id tiebreak
        assert sched.select([], now=0.0) == ()

    def test_affinity_prefers_warm_keys(self):
        items = [req(0, graph="GS", algo="BFS", arrival=0.0),
                 req(1, graph="FK", algo="BFS", arrival=1.0)]
        sched = AffinityScheduler()
        picked = sched.select(items, now=2.0, warm_keys=[("FK", "plain")])
        assert picked[0].request_id == 1
        # No warm key queued: falls back to the head of line.
        picked = sched.select(items, now=2.0, warm_keys=[("UK", "plain")])
        assert picked[0].request_id == 0

    def test_affinity_aging_guard_beats_warmth(self):
        items = [req(0, graph="GS", arrival=0.0),
                 req(1, graph="FK", arrival=99.0)]
        sched = AffinityScheduler(aging_seconds=10.0)
        # Head has waited 100 s > 10 s: dispatched despite FK being warm.
        picked = sched.select(items, now=100.0, warm_keys=[("FK", "plain")])
        assert picked[0].request_id == 0

    def test_batching_fuses_same_key_same_algorithm(self):
        items = [req(0, algo="BFS", arrival=0.0),
                 req(1, algo="BFS", arrival=1.0),
                 req(2, algo="CC", arrival=0.5),           # same key, not batchable
                 req(3, algo="BFS", graph="FK", arrival=0.2),  # other key
                 req(4, algo="BFS", arrival=2.0)]
        sched = FifoScheduler(max_batch=3)
        batch = sched.select(items, now=3.0)
        assert [r.request_id for r in batch] == [0, 1, 4]

    def test_non_batchable_lead_dispatches_alone(self):
        items = [req(0, algo="CC", arrival=0.0), req(1, algo="CC", arrival=1.0)]
        batch = FifoScheduler(max_batch=4).select(items, now=2.0)
        assert [r.request_id for r in batch] == [0]

    def test_make_scheduler_and_validation(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("affinity", max_batch=2),
                          AffinityScheduler)
        with pytest.raises(ValueError):
            make_scheduler("random")
        with pytest.raises(ValueError):
            FifoScheduler(max_batch=0)
        with pytest.raises(ValueError):
            AffinityScheduler(aging_seconds=0.0)
