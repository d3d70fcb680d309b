"""Fleet fault tolerance: device loss, re-shard recovery, and degradation.

The two acceptance pins of the fault-tolerance PR live here:

* **engine** — a 4-device :class:`~repro.engines.sharded.ShardedEngine`
  BFS with one device killed mid-run completes with values bit-identical
  to the fault-free run, and the recovery cost (re-shard + checkpoint
  restore H2D) appears in the event log as typed markers;
* **serve** — under :func:`~repro.gpusim.faults.standard_fleet_plan`, a
  4-device fleet keeps goodput strictly above the 1-device fault-free
  baseline, the SLO report carries a ``degraded`` section with nonzero
  relocated-request counts, and the chaos run replays bit for bit.

Both rest on :class:`TestShardedPayloadPins`: full-payload hashes of
sharded runs under the standard fleet plan (two victims) and the
single-device ``standard_plan()``, lean and recorded, taken before
``ShardedEngine`` moved onto ``Engine.run`` and held unchanged since.

Around them: the hypothesis determinism property (twice-run digests are
identical under *any* seeded device-fault plan), the late-loss regression
(a device dying after the final superstep changes no values and no
digest), router circuit-breaker units, and the per-device fault folds /
Chrome-trace counter surfacing.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.analysis.traces import chrome_trace_events
from repro.engines import registry
from repro.engines.sharded import DeviceLostError, ShardedEngine
from repro.gpusim.fabric import Fabric, FabricSpec
from repro.gpusim.faults import (
    DeviceFault,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    standard_fleet_plan,
    standard_plan,
)
from repro.gpusim.events import fold_device_faults
from repro.graph.properties import best_source
from repro.harness.experiments import make_workload, run_workload
from repro.harness.persistence import result_to_payload
from repro.serve import (
    SLO_SCHEMA,
    Router,
    fleet_quick_config,
    run_fleet_test,
    run_load_test,
)

from conftest import TEST_SCALE, make_spec_for
from event_log_oracles import rows


def payload_digest(result) -> str:
    blob = json.dumps(result_to_payload(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_sharded(graph, program_factory, *, devices=4, **opts):
    engine = registry.create("Sharded", spec=make_spec_for(graph),
                             data_scale=TEST_SCALE, devices=devices, **opts)
    return engine.run(graph, program_factory())


def bfs_factory(graph):
    source = best_source(graph)
    return lambda: make_program("BFS", source=source)


def mid_run_plan(baseline, seed=0, devices=4):
    """The standard fleet plan retimed inside ``baseline``'s sim horizon."""
    t = baseline.elapsed_seconds
    return standard_fleet_plan(seed=seed, n_devices=devices, down_at=t / 2,
                               degrade_start=t * 0.6, degrade_end=t * 0.8)


class TestShardedRecovery:
    """The engine-layer acceptance pin and its satellites."""

    @pytest.fixture(scope="class")
    def baseline(self, small_social):
        return run_sharded(small_social, bfs_factory(small_social))

    @pytest.fixture(scope="class")
    def chaos(self, small_social, baseline):
        return run_sharded(small_social, bfs_factory(small_social),
                           fault_plan=mid_run_plan(baseline), seed=0,
                           record_events=True)

    def test_values_bit_identical_after_device_loss(self, baseline, chaos):
        assert chaos.extra["device_losses"] == 1.0
        assert np.array_equal(baseline.values, chaos.values)
        assert baseline.iterations == chaos.iterations

    def test_recovery_cost_is_typed_markers(self, chaos):
        kinds = {e.kind for e in rows(chaos.event_log.events)}
        assert {"device-down", "reshard", "ckpt-restore"} <= kinds
        restores = [e for e in rows(chaos.event_log.events)
                    if e.kind == "ckpt-restore" and e.device is not None]
        # Every survivor restores vertex state from the barrier checkpoint.
        assert len(restores) == 3
        assert all(dict(e.extra).get("bytes", 0) > 0 for e in restores)

    def test_recovery_surfaces_in_extras(self, chaos):
        assert chaos.extra["fault_device_down"] == 1.0
        # The victim (seed 0 → device 0) owns the down/reshard markers ...
        assert chaos.extra["device0_fault_device_down"] == 1.0
        assert chaos.extra["device0_fault_reshard"] == 1.0
        # ... and each survivor owns one checkpoint restore.
        for d in (1, 2, 3):
            assert chaos.extra[f"device{d}_fault_ckpt_restore"] == 1.0

    def test_loss_after_final_superstep_changes_nothing(self, small_social,
                                                        baseline):
        # Regression pin: a device death scheduled beyond the run's horizon
        # must not perturb values, extras, or digest in any way.
        late = standard_fleet_plan(
            seed=0, n_devices=4, down_at=baseline.elapsed_seconds * 10,
            degrade_start=baseline.elapsed_seconds * 11,
            degrade_end=baseline.elapsed_seconds * 12)
        res = run_sharded(small_social, bfs_factory(small_social),
                          fault_plan=late, seed=0)
        assert np.array_equal(baseline.values, res.values)
        assert "device_losses" not in res.extra
        assert payload_digest(res) == payload_digest(baseline)

    def test_all_devices_lost_raises(self, small_social, baseline):
        t = baseline.elapsed_seconds / 2
        plan = FaultPlan(device_faults=tuple(
            DeviceFault(device=d, start=t) for d in range(2)))
        with pytest.raises(DeviceLostError):
            run_sharded(small_social, bfs_factory(small_social),
                        devices=2, fault_plan=plan, seed=0)


#: ``(dataset, algo, devices, inner)`` at scale 5e-5.
PINNED_FLEETS = (
    ("GS", "BFS", 4, "Ascetic"),
    ("FK", "BFS", 3, "Hybrid"),
    ("GS", "SSSP", 2, "Ascetic"),
)
PINNED_PLANS = ("fleet0", "fleet7", "standard")

PAYLOAD_PINS = {
    "GS/BFS/4xAscetic/fleet0/lean": "d11691878c651a22",
    "GS/BFS/4xAscetic/fleet0/recorded": "6f08458783cceff5",
    "GS/BFS/4xAscetic/fleet7/lean": "5fc5e0b04c95ee25",
    "GS/BFS/4xAscetic/fleet7/recorded": "ad97d83579a1f9c1",
    "GS/BFS/4xAscetic/standard/lean": "5977ee8ebfc45339",
    "GS/BFS/4xAscetic/standard/recorded": "b6e7d96df76ee628",
    "FK/BFS/3xHybrid/fleet0/lean": "6eec32ffc2c795b3",
    "FK/BFS/3xHybrid/fleet0/recorded": "4c496c94749f80c9",
    "FK/BFS/3xHybrid/fleet7/lean": "d27467c33aa818b0",
    "FK/BFS/3xHybrid/fleet7/recorded": "5a364613af6202d8",
    "FK/BFS/3xHybrid/standard/lean": "e131d3b2785d77bb",
    "FK/BFS/3xHybrid/standard/recorded": "3288f70e1c134070",
    "GS/SSSP/2xAscetic/fleet0/lean": "d67a5c5f09d2aa99",
    "GS/SSSP/2xAscetic/fleet0/recorded": "453aaaa7850a8c58",
    "GS/SSSP/2xAscetic/fleet7/lean": "247c548d84b73114",
    "GS/SSSP/2xAscetic/fleet7/recorded": "f40fa4545a318364",
    "GS/SSSP/2xAscetic/standard/lean": "17341cc6daa4159a",
    "GS/SSSP/2xAscetic/standard/recorded": "4a2e46397968c7c6",
}


class TestShardedPayloadPins:
    """Every byte of a faulted sharded payload is a fixed point."""

    @pytest.mark.parametrize("plan_name", PINNED_PLANS)
    @pytest.mark.parametrize("dataset,algo,devices,inner", PINNED_FLEETS)
    def test_payload_is_bit_identical_to_parent(self, dataset, algo, devices,
                                                inner, plan_name):
        w = make_workload(dataset, algo, scale=5e-5)
        opts = {"devices": devices, "inner": inner}
        baseline = run_workload(w, "Sharded", **opts)
        if plan_name == "standard":
            plan, seed = standard_plan(), 0
        else:
            seed = int(plan_name[len("fleet"):])
            plan = mid_run_plan(baseline, seed=seed, devices=devices)
        for mode, record in (("lean", False), ("recorded", True)):
            chaos = run_workload(w, "Sharded", fault_plan=plan, seed=seed,
                                 record_events=record, **opts)
            assert np.array_equal(chaos.values, baseline.values)
            key = f"{dataset}/{algo}/{devices}x{inner}/{plan_name}/{mode}"
            assert payload_digest(chaos) == PAYLOAD_PINS[key], key


class TestChaosDeterminism:
    """Twice-run digests are identical under any seeded device-fault plan."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), victim=st.integers(0, 2),
           down_frac=st.floats(0.05, 2.0))
    def test_twice_run_digest_identical(self, seed, victim, down_frac):
        graph = _property_graph()
        base = run_sharded(graph, bfs_factory(graph), devices=3)
        plan = FaultPlan(
            device_faults=(DeviceFault(
                device=victim,
                start=base.elapsed_seconds * down_frac),),
            peer_degradations=(LinkDegradation(
                start=base.elapsed_seconds * down_frac,
                end=base.elapsed_seconds * (down_frac + 0.2),
                factor=0.5),),
        )
        first = run_sharded(graph, bfs_factory(graph), devices=3,
                            fault_plan=plan, seed=seed)
        second = run_sharded(graph, bfs_factory(graph), devices=3,
                             fault_plan=plan, seed=seed)
        assert payload_digest(first) == payload_digest(second)
        # Faults cost virtual time, never correctness.
        assert np.array_equal(base.values, first.values)


_PROPERTY_GRAPH = None


def _property_graph():
    # One small shared graph keeps the hypothesis examples fast; built
    # lazily so collection stays cheap.
    global _PROPERTY_GRAPH
    if _PROPERTY_GRAPH is None:
        from repro.graph.generators import social_graph
        _PROPERTY_GRAPH = social_graph(400, 4000, seed=11)
    return _PROPERTY_GRAPH


class TestFabricHealth:
    def make_fabric(self, plan, n=2):
        spec = FabricSpec(n_devices=n)
        return Fabric(spec, record_events=True,
                      faults=FaultInjector(plan, seed=0))

    def test_device_down_marker_and_alive(self):
        plan = FaultPlan(device_faults=(DeviceFault(device=1, start=1.0),))
        fab = self.make_fabric(plan)
        assert fab.check_health(0.5) == []
        assert fab.health == {0: "up", 1: "up"}
        assert fab.check_health(2.0) == [(1, "down")]
        assert fab.health == {0: "up", 1: "down"}
        downs = [e for e in rows(fab.events.events) if e.kind == "device-down"]
        assert len(downs) == 1 and downs[0].device == 1
        # Health transitions are edge-triggered: re-checking emits nothing.
        assert fab.check_health(3.0) == []
        assert len([e for e in rows(fab.events.events)
                    if e.kind == "device-down"]) == 1

    def test_transient_stall_recovers(self):
        plan = FaultPlan(device_faults=(
            DeviceFault(device=0, start=1.0, end=2.0),))
        fab = self.make_fabric(plan)
        fab.check_health(1.5)
        assert fab.health[0] == "stalled"
        fab.check_health(2.5)
        assert fab.health[0] == "up"
        kinds = [e.kind for e in rows(fab.events.events)
                 if e.kind in ("device-down", "device-up")]
        assert kinds == ["device-down", "device-up"]

    def test_peer_degradation_slows_transfer(self):
        window = LinkDegradation(start=0.0, end=100.0, factor=0.25)
        degraded = self.make_fabric(FaultPlan(peer_degradations=(window,)))
        clean = self.make_fabric(FaultPlan())
        payload = 1 << 20
        slow = degraded.transfer(0, 1, payload, label="x")
        fast = clean.transfer(0, 1, payload, label="x")
        assert slow > fast
        # The degradation divides only the streamed term of the link's cost.
        fixed, variable = clean.device_link.copy_cost(payload)
        assert fast == fixed + variable
        assert slow == fixed + variable / 0.25


class TestRouterBreaker:
    def make(self):
        return Router()

    def test_opens_at_threshold(self):
        router = self.make()
        assert not router.note_failure(1, t=1.0)
        assert router.note_failure(1, t=2.0)  # second strike opens
        assert not router.usable(1, 3.0)

    def test_half_open_probe_after_interval(self):
        router = self.make()
        router.note_failure(1, t=1.0)
        router.note_failure(1, t=2.0)
        assert not router.usable(1, 6.9)
        assert router.usable(1, 7.0)  # opened at 2.0 + probe 5.0

    def test_success_closes_and_resets(self):
        router = self.make()
        router.note_failure(1, t=1.0)
        router.note_failure(1, t=2.0)
        assert router.note_success(1)  # closes
        assert router.usable(1, 2.5)
        # The strike count reset with the close.
        assert not router.note_failure(1, t=3.0)

    def test_validates_knobs(self):
        # The breaker's threshold and probe interval are constants; the
        # shard threshold is the one knob a caller sets.
        with pytest.raises(ValueError):
            Router(shard_over=0.0)


class TestFleetDegraded:
    """The serve-layer acceptance pin: goodput survives a device loss."""

    @pytest.fixture(scope="class")
    def chaos_config(self):
        return replace(fleet_quick_config(seed=0, n_devices=4),
                       fault_plan=standard_fleet_plan(seed=0, n_devices=4))

    @pytest.fixture(scope="class")
    def chaos_result(self, chaos_config):
        return run_fleet_test(chaos_config)

    def test_goodput_beats_single_device_baseline(self, chaos_config,
                                                  chaos_result):
        single = run_load_test(chaos_config.serve)
        assert (chaos_result.report["goodput_per_second"]
                > single.report["goodput_per_second"])

    def test_degraded_section_and_schema(self, chaos_result):
        report = chaos_result.report
        assert report["schema"] == SLO_SCHEMA
        assert "fleet" in report
        degraded = report["degraded"]
        assert degraded["relocated_requests"] > 0
        assert degraded["retried_requests"] > 0
        assert degraded["degraded_seconds"] > 0
        victim = degraded["devices"]["0"]
        assert victim["downtime_seconds"] > 0
        assert victim["dispatch_failures"] > 0

    def test_retries_surface_on_responses(self, chaos_result):
        retried = [r for r in chaos_result.responses if r.retries]
        assert retried
        # A retried completion landed on a device that was not the victim.
        assert all(r.device != 0 for r in retried if r.completed)

    def test_twice_run_digest_identical(self, chaos_config, chaos_result):
        again = run_fleet_test(chaos_config)
        assert chaos_result.run_digest() == again.run_digest()

    def test_fault_free_fleet_keeps_fleet_schema(self):
        report = run_fleet_test(fleet_quick_config(seed=0)).report
        assert report["schema"] == SLO_SCHEMA
        assert "fleet" in report
        assert "degraded" not in report

    def test_plan_with_no_observed_faults_keeps_digest(self):
        # A fault plan whose device loss fires after the load test's
        # horizon must not disturb the report or the digest... except for
        # the config fingerprint, which legitimately differs — so compare
        # the SLO reports instead.
        base = run_fleet_test(fleet_quick_config(seed=0, n_devices=4))
        late = replace(
            fleet_quick_config(seed=0, n_devices=4),
            fault_plan=standard_fleet_plan(seed=0, n_devices=4,
                                           down_at=1e9,
                                           degrade_start=2e9,
                                           degrade_end=3e9))
        res = run_fleet_test(late)
        assert "degraded" not in res.report
        assert res.report == base.report


class TestFaultObservability:
    """Per-device fault folds and the Chrome-trace counter surfacing."""

    def test_fold_device_faults_fault_free_is_empty(self, small_social):
        res = run_sharded(small_social, bfs_factory(small_social),
                          record_events=True)
        assert fold_device_faults(res.event_log.events) == {}

    def test_fold_device_faults_keys_by_device(self, small_social):
        base = run_sharded(small_social, bfs_factory(small_social))
        res = run_sharded(small_social, bfs_factory(small_social),
                          fault_plan=mid_run_plan(base), seed=0,
                          record_events=True)
        folds = fold_device_faults(res.event_log.events)
        assert folds[0]["fault_device_down"] == 1
        assert folds[0]["fault_reshard"] == 1
        for d in (1, 2, 3):
            assert folds[d]["fault_ckpt_restore"] == 1

    def test_chaos_counters_in_chrome_trace(self, small_social):
        base = run_sharded(small_social, bfs_factory(small_social))
        res = run_sharded(small_social, bfs_factory(small_social),
                          fault_plan=mid_run_plan(base), seed=0,
                          record_events=True)
        events = chrome_trace_events(res)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "fault counter track missing from fabric trace"
        victim = [e for e in counters if e["pid"] == 0]
        assert any(e["args"].get("fault_device_down") == 1 for e in victim)

    def test_single_device_trace_stays_byte_identical(self, small_social):
        # The single-device export path must not grow counter events (or
        # anything else): same log in, byte-identical JSON out.
        factory = bfs_factory(small_social)
        engine = registry.create("Ascetic", spec=make_spec_for(small_social),
                                 data_scale=TEST_SCALE, record_events=True)
        res = engine.run(small_social, factory())
        first = json.dumps(chrome_trace_events(res), sort_keys=True)
        second = json.dumps(chrome_trace_events(res), sort_keys=True)
        assert first == second
        assert not [e for e in json.loads(first) if e["ph"] == "C"]


class TestPlanSerialization:
    def test_standard_fleet_plan_round_trips(self):
        plan = standard_fleet_plan(seed=3, n_devices=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_empty_device_fields_omitted(self):
        # Fingerprint stability: plans without device faults serialize
        # exactly as they did before the fleet-chaos fields existed.
        d = FaultPlan(transfer_fail_rate=0.1).to_dict()
        assert "device_faults" not in d
        assert "peer_degradations" not in d

    def test_victim_follows_seed(self):
        assert standard_fleet_plan(seed=1, n_devices=4).device_faults[0].device == 1
        assert standard_fleet_plan(seed=6, n_devices=4).device_faults[0].device == 2
