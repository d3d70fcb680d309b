"""Fleet serving tests: router policy, determinism, and the scaling pin.

The acceptance test at the bottom is the PR's serving-layer claim: under a
pinned 120-request load, a 4-device fleet beats a single device on p95
end-to-end latency, and the fleet run replays bit for bit (twice-run
digest identity).
"""

import json

import pytest

from repro.gpusim.fabric import FabricSpec
from repro.serve import (
    FABRIC,
    FleetConfig,
    Router,
    ServeConfig,
    fleet_quick_config,
    run_fleet_test,
    run_load_test,
)
from repro.serve.pool import EnginePool
from repro.serve.slo import SLO_SCHEMA


class FakePool:
    """Just enough of EnginePool for Router.decide: warm keys + length."""

    def __init__(self, keys=()):
        self._keys = tuple(keys)

    def warm_keys(self):
        return self._keys

    def __len__(self):
        return len(self._keys)


class TestRouter:
    def make(self, shard_over=None):
        return Router(shard_over)

    def test_warm_affinity_wins(self):
        router = self.make()
        pools = [FakePool(), FakePool([("GS", "plain")]),
                 FakePool(), FakePool()]
        d = router.decide(("GS", "plain"), 100, 1000, [0, 1, 2, 3], pools)
        assert d.target == 1
        assert d.reason == "warm-affinity"
        assert not d.sharded

    def test_warm_affinity_only_on_free_devices(self):
        router = self.make()
        pools = [FakePool(), FakePool([("GS", "plain")]),
                 FakePool(), FakePool()]
        d = router.decide(("GS", "plain"), 100, 1000, [0, 2], pools)
        assert d.reason == "least-loaded"
        assert d.target == 0

    def test_least_loaded_prefers_emptiest_pool(self):
        router = self.make()
        pools = [FakePool([("A", "plain"), ("B", "plain")]),
                 FakePool([("A", "plain")]), FakePool(), FakePool()]
        d = router.decide(("C", "plain"), 100, 1000, [0, 1, 2, 3], pools)
        assert d.target == 2  # empty pool, lowest id on the 2/3 tie

    def test_oversized_routes_to_fabric(self):
        router = self.make(shard_over=1.0)
        d = router.decide(("FK", "plain"), 2000, 1000, [0, 1, 2, 3],
                          [FakePool()] * 4)
        assert d.target == FABRIC
        assert d.reason == "oversized"
        assert d.sharded

    def test_capacity_is_largest_device(self):
        # Every device has the workload's memory, so that is the largest:
        # a graph is oversized only past shard_over times it.
        router = self.make(shard_over=1.5)
        assert not router.oversized(1500, 1000)
        assert router.oversized(1501, 1000)

    def test_no_shard_over_disables_sharding(self):
        router = self.make(shard_over=None)
        d = router.decide(("FK", "plain"), 10**12, 1000, [0],
                          [FakePool()] * 4)
        assert not d.sharded

    def test_no_free_devices_raises(self):
        router = self.make()
        with pytest.raises(ValueError, match="free device"):
            router.decide(("GS", "plain"), 100, 1000, [], [FakePool()] * 4)

    def test_rejects_bad_shard_over(self):
        with pytest.raises(ValueError):
            Router(shard_over=0.0)
        with pytest.raises(ValueError):
            FleetConfig(shard_over=-1.0)


class TestFleetQuick:
    @pytest.fixture(scope="class")
    def quick_result(self):
        return run_fleet_test(fleet_quick_config())

    def test_twice_run_digest_identical(self, quick_result):
        again = run_fleet_test(fleet_quick_config())
        assert quick_result.run_digest() == again.run_digest()

    def test_report_carries_fleet_schema(self, quick_result):
        report = quick_result.report
        assert report["schema"] == SLO_SCHEMA
        assert "degraded" not in report  # no fault observed
        fleet = report["fleet"]
        assert fleet["n_dispatches"] > 0
        # The quick config is tuned so both regimes fire: GS replicates,
        # FK (over the shard_over threshold) runs fabric-wide.
        assert 0 < fleet["sharded_dispatches"] < fleet["n_dispatches"]
        assert fleet["exchange_bytes"] > 0

    def test_per_device_buckets(self, quick_result):
        devices = quick_result.report["fleet"]["devices"]
        n = quick_result.config.fabric.n_devices
        assert set(devices) == {str(d) for d in range(n)} | {"fabric"}
        for bucket in devices.values():
            assert 0.0 <= bucket["utilization"]
            assert bucket["busy_seconds"] >= 0.0
        assert devices["fabric"]["dispatches"] == \
            quick_result.report["fleet"]["sharded_dispatches"]

    def test_responses_carry_device(self, quick_result):
        n = quick_result.config.fabric.n_devices
        completed = [r for r in quick_result.responses
                     if r.finish_time is not None]
        assert completed
        for resp in completed:
            assert resp.device is not None
            assert resp.device == FABRIC or 0 <= resp.device < n
        # Some dispatch actually went fabric-wide.
        assert any(r.device == FABRIC for r in completed)

    def test_per_device_pool_stats_and_merge(self, quick_result):
        per_dev = quick_result.device_pool_stats
        assert sorted(per_dev) == list(
            range(quick_result.config.fabric.n_devices))
        merged = quick_result.pool_stats
        assert merged.misses == sum(s.misses for s in per_dev.values())
        assert merged.hits == sum(s.hits for s in per_dev.values())

    def test_every_request_answered(self, quick_result):
        assert len(quick_result.responses) == len(quick_result.requests)
        ids = [r.request.request_id for r in quick_result.responses]
        assert ids == [r.request_id for r in quick_result.requests]


def test_single_server_is_a_fleet_of_one():
    # One loop, one report shape: the single server's report carries the
    # same schema and a one-device fleet section, and the call is exactly
    # the one-device fleet config.
    from repro.serve import quick_config

    res = run_load_test(quick_config())
    report = res.report
    assert report["schema"] == SLO_SCHEMA
    assert "degraded" not in report
    assert set(report["fleet"]["devices"]) == {"0"}
    assert report["fleet"]["sharded_dispatches"] == 0
    assert report["fleet"]["n_dispatches"] > 0
    assert all(r.device == 0 for r in res.responses if r.completed)
    one = run_fleet_test(FleetConfig(serve=quick_config(),
                                     fabric=FabricSpec(n_devices=1)))
    assert one.trace_payload() == res.trace_payload()


class TestFleetScaling:
    """The acceptance pin: 4 devices beat 1 on p95 e2e at 120 requests."""

    CONFIG = ServeConfig(
        seed=3,
        n_requests=120,
        arrival_rate=4.0,
        graphs=("GS",),
        algorithms=("BFS", "CC"),
        engine="Ascetic",
        scale=5e-5,
        queue_capacity=200,
        queue_policy="reject",
        max_batch=2,
        max_engines=2,
    )

    def test_four_devices_beat_one_on_p95(self):
        single = run_load_test(self.CONFIG)
        fleet = run_fleet_test(FleetConfig(
            serve=self.CONFIG, fabric=FabricSpec(n_devices=4)))

        s = single.report
        f = fleet.report
        # Same offered load, nothing shed on the fleet side at 4x servers.
        assert f["counts"]["arrived"] == s["counts"]["arrived"] == 120
        assert f["counts"]["completed"] >= s["counts"]["completed"]
        p95_single = s["latency_seconds"]["e2e"]["p95"]
        p95_fleet = f["latency_seconds"]["e2e"]["p95"]
        assert p95_fleet < p95_single

        # And the fleet run replays bit for bit.
        again = run_fleet_test(FleetConfig(
            serve=self.CONFIG, fabric=FabricSpec(n_devices=4)))
        assert fleet.run_digest() == again.run_digest()


def test_warm_process_replays_a_cold_one_byte_for_byte(monkeypatch):
    """What a fabric-wide dispatch reuses — kept shard sets, memoized
    traces and exchange destinations — never shows: a fleet pass and its
    chaos twin report the same bytes after the dataset cache is cleared
    (everything built afresh) and again warm, in one process.  Each CI job
    is a fresh process, so only a test like this sees the warm path."""
    from dataclasses import replace

    from repro.engines import sharded
    from repro.gpusim.faults import standard_fleet_plan
    from repro.harness import experiments
    from repro.harness.persistence import result_to_payload

    base = fleet_quick_config(0, n_devices=4)
    configs = (base, replace(base, fault_plan=standard_fleet_plan(0, 4)))
    builds = []
    build = sharded.shard_graph
    monkeypatch.setattr(sharded, "shard_graph",
                        lambda graph, n: builds.append(n) or build(graph, n))

    def payloads():
        out = []
        for config in configs:
            res = run_fleet_test(config)
            out.append(json.dumps(res.trace_payload(), sort_keys=True))
            out.extend(json.dumps(result_to_payload(r), sort_keys=True)
                       for r in res.run_results)
        return out

    experiments.clear_dataset_cache()
    cold = payloads()
    cold_builds = len(builds)
    assert cold_builds and any('"Sharded"' in r for r in cold)
    del builds[:]
    assert payloads() == cold
    # Some warm dispatches read kept sets.  Not all: at this scale one FK
    # view's 4- and 3-device sets exceed the bound together, so the chaos
    # twin's re-shard evicts the 4-device set.
    assert len(builds) < cold_builds
