"""Cross-device determinism: sharded runs match single-device bit for bit.

The acceptance tests of the fleet refactor's engine layer live here: a
4-device :class:`~repro.engines.sharded.ShardedEngine` run produces value
arrays and run digests bit-identical to the single-device engines (for
both Ascetic and Hybrid inners), twice-run digests are identical, and a
graph whose edge array exceeds every single device's capacity still
completes on the fabric.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.algorithms.base import program_trace
from repro.core.manager import RegionEngine
from repro.engines import registry
from repro.engines.sharded import VALUE_DELTA_BYTES, ShardedEngine
from repro.gpusim.fabric import FabricSpec
from repro.gpusim.faults import standard_fleet_plan
from repro.graph.generators import social_graph
from repro.graph.properties import best_source
from repro.graph.shard import shard_graph
from repro.harness.persistence import result_to_payload
from repro.serve.batching import make_batched

from conftest import TEST_SCALE, make_spec_for, neighbors


def run_engine(name, graph, program_factory, **opts):
    engine = registry.create(name, spec=make_spec_for(graph),
                             data_scale=TEST_SCALE, **opts)
    return engine.run(graph, program_factory())


def payload_digest(result) -> str:
    blob = json.dumps(result_to_payload(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class TestConstruction:
    def test_defaults(self):
        eng = ShardedEngine()
        assert eng.fabric_spec.n_devices == 2
        assert eng.inner == "Ascetic"

    def test_shorthand_and_spec_agree(self):
        assert ShardedEngine(devices=4).fabric_spec == FabricSpec(n_devices=4)
        nvlink = FabricSpec(n_devices=4, topology="nvlink")
        assert ShardedEngine(fabric=nvlink, devices=4).fabric_spec == nvlink

    def test_zero_devices_rejected_like_the_fabric_spec(self):
        # ``devices=0`` used to fall through ``devices if devices else 2``.
        with pytest.raises(ValueError, match="n_devices"):
            ShardedEngine(devices=0)

    def test_fabric_dict_accepted(self):
        eng = ShardedEngine(fabric={"n_devices": 3, "topology": "nvlink"})
        assert eng.fabric_spec.n_devices == 3

    def test_contradictory_shorthand_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(fabric=FabricSpec(n_devices=2), devices=4)

    def test_rejects_sharded_inner(self):
        with pytest.raises(ValueError):
            ShardedEngine(inner="Sharded")

    def test_accepts_fault_plan(self):
        # Chaos mode used to be rejected; fleet fault tolerance made the
        # plan a first-class constructor argument.
        from repro.gpusim.faults import standard_plan
        eng = ShardedEngine(fault_plan=standard_plan())
        assert eng.fault_plan is not None

    def test_registered_with_opts(self):
        assert registry.get("Sharded") is ShardedEngine
        assert not issubclass(ShardedEngine, RegionEngine)  # no warm start
        assert registry.options("Sharded") == ("fabric", "devices", "inner")

    def test_unknown_opt_rejected_by_registry(self):
        with pytest.raises(TypeError, match="chunk_bytes"):
            registry.create("Sharded", chunk_bytes=4096)


class TestCrossDeviceDeterminism:
    """4-device runs are bit-identical to 1-device runs, Ascetic + Hybrid."""

    @pytest.mark.parametrize("algo", ["BFS", "PR"])
    def test_matches_single_device_ascetic(self, small_social, algo):
        if algo == "BFS":
            factory = lambda: make_program(
                "BFS", source=best_source(small_social))
        else:
            factory = lambda: make_program("PR", tol=1e-3)
        single = run_engine("Ascetic", small_social, factory)
        sharded = run_engine("Sharded", small_social, factory,
                             devices=4, inner="Ascetic")
        assert np.array_equal(single.values, sharded.values)
        assert single.iterations == sharded.iterations

    def test_sssp_matches_single_device_hybrid(self, small_social):
        weighted = small_social.with_random_weights(high=64)
        factory = lambda: make_program(
            "SSSP", source=best_source(weighted))
        single = run_engine("Hybrid", weighted, factory)
        sharded = run_engine("Sharded", weighted, factory,
                             devices=4, inner="Hybrid")
        assert np.array_equal(single.values, sharded.values)

    def test_hybrid_and_ascetic_inners_agree(self, small_web):
        factory = lambda: make_program("CC")
        a = run_engine("Sharded", small_web, factory,
                       devices=4, inner="Ascetic")
        h = run_engine("Sharded", small_web, factory,
                       devices=4, inner="Hybrid")
        assert np.array_equal(a.values, h.values)

    def test_twice_run_digest_identical(self, small_social):
        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        d1 = payload_digest(run_engine("Sharded", small_social, factory,
                                       devices=4))
        d2 = payload_digest(run_engine("Sharded", small_social, factory,
                                       devices=4))
        assert d1 == d2

    def test_single_device_fabric_degenerates(self, small_social):
        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        single = run_engine("Ascetic", small_social, factory)
        one_dev = run_engine("Sharded", small_social, factory,
                             devices=1)
        assert np.array_equal(single.values, one_dev.values)


class TestShardedRunShape:
    def test_extras_and_exchange_accounting(self, small_social):
        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        res = run_engine("Sharded", small_social, factory, devices=4)
        assert res.extra["n_devices"] == 4.0
        assert res.extra["exchange_bytes"] > 0
        per_dev = [res.extra[f"device{d}_exchange_bytes"] for d in range(4)]
        assert sum(per_dev) == pytest.approx(res.extra["exchange_bytes"])
        for d in range(4):
            frac = res.extra[f"device{d}_gpu_busy_frac"]
            assert 0.0 <= frac <= 1.0
        assert "Texchange" in res.metrics.phase_seconds
        assert res.metrics.phase_seconds["Texchange"] > 0

    def test_zero_iteration_cap_runs_no_superstep(self, small_social):
        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        res = run_engine("Sharded", small_social, factory, devices=3,
                         max_iterations=0)
        assert res.iterations == 0
        assert res.per_iteration == []
        assert "Texchange" not in res.metrics.phase_seconds

    def test_records_carry_the_pre_step_index(self, small_social):
        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        res = run_engine("Sharded", small_social, factory, devices=3)
        assert [r.iteration for r in res.per_iteration] \
            == list(range(res.iterations))
        for prev, rec in zip(res.per_iteration, res.per_iteration[1:]):
            assert rec.t_start == prev.t_end

    def test_hook_fires_once_per_superstep_after_recovery(self, small_social):
        """The hook sees the fabric, once per superstep; a device loss is
        recovered (and charged) before it, outside the superstep's record."""
        from repro.gpusim.fabric import Fabric
        from repro.gpusim.faults import standard_fleet_plan

        factory = lambda: make_program(
            "BFS", source=best_source(small_social))
        t = run_engine("Sharded", small_social, factory,
                       devices=3).elapsed_seconds
        plan = standard_fleet_plan(seed=0, n_devices=3, down_at=t / 2,
                                   degrade_start=t * 2, degrade_end=t * 3)
        engine = registry.create("Sharded", spec=make_spec_for(small_social),
                                 data_scale=TEST_SCALE, devices=3,
                                 fault_plan=plan, seed=0)
        seen = []

        def hook(eng, fabric, graph, state):
            assert eng is engine and isinstance(fabric, Fabric)
            seen.append((state.iteration, fabric.clock.now,
                         [d for d, h in sorted(fabric.health.items()) if h != "down"],
                         list(eng._device_ids)))

        engine.iteration_hook = hook
        res = engine.run(small_social, factory())
        assert res.extra["device_losses"] == 1.0
        assert [it for it, *_ in seen] == list(range(res.iterations))
        # From the loss on, the hook only ever sees the recovered fleet.
        assert all(alive == ids for _, _, alive, ids in seen)
        assert seen[0][2] == [0, 1, 2] and seen[-1][2] == [1, 2]
        # Recovery sits between two records: after the previous superstep
        # ended, before the hook (and the next record's t_start).
        assert [now for _, now, *_ in seen] \
            == [r.t_start for r in res.per_iteration]
        gaps = [rec.t_start - prev.t_end for prev, rec in
                zip(res.per_iteration, res.per_iteration[1:])]
        assert sum(g > 0 for g in gaps) == 1
        assert res.metrics.phase_seconds["Trecover"] > 0


class ExchangeLog(ShardedEngine):
    """A Sharded engine that notes what each superstep's exchange sent:
    ``log[iteration] = (live device ids, {(src, dst): payload})``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = {}

    def _exchange(self, fabric, graph, program, iteration):
        sent = {}
        send = fabric.all_exchange
        fabric.all_exchange = lambda per_pair, **kw: (
            sent.update(per_pair), send(per_pair, **kw))[1]
        try:
            super()._exchange(fabric, graph, program, iteration)
        finally:
            del fabric.all_exchange
        self.log[iteration] = (list(self._device_ids), sent)


def spec_exchange(graph, mask, live):
    """What a superstep with frontier ``mask`` must send over the fleet
    ``live``: each shard of a fresh ``len(live)``-way cut sends one delta per
    distinct destination of the mask's out-edges it holds, to every peer."""
    sent = {}
    for d, shard in zip(live, shard_graph(graph, len(live))):
        dests = [neighbors(shard.graph, v) for v in np.flatnonzero(mask)]
        n = np.unique(np.concatenate(dests)).size if dests else 0
        sent.update({(d, peer): n * VALUE_DELTA_BYTES
                     for peer in live if peer != d and n})
    return sent


def check_exchange(engine, graph, program):
    """Run ``engine`` twice (the second run reads the memoized shard set
    and destinations) and hold each superstep's exchange to the spec."""
    trace = program_trace(graph, program, engine.max_iterations)
    for _ in range(2):
        engine.log = {}
        res = engine.run(graph, program)
        assert sorted(engine.log) == list(range(len(trace)))
        for i, (live, sent) in engine.log.items():
            assert sent == spec_exchange(graph, trace.mask(i), live), i
    return res


class TestExchangeSpec:
    """The exchange counts read from memoized destination bitmaps equal
    distinct destinations counted per vertex, superstep by superstep."""

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**16), algo=st.sampled_from(["BFS", "SSSP"]),
           n_sources=st.integers(1, 4), devices=st.integers(2, 4),
           cap=st.one_of(st.none(), st.integers(1, 4)))
    def test_counts_equal_the_spec(self, seed, algo, n_sources, devices, cap):
        graph = social_graph(300, 2400, seed=seed)
        if algo == "SSSP":
            graph = graph.with_random_weights(high=16, seed=seed)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, graph.n_vertices, size=n_sources).tolist()
        program = (make_program(algo, source=sources[0]) if n_sources == 1
                   else make_batched(algo, sources))
        engine = ExchangeLog(spec=make_spec_for(graph), data_scale=TEST_SCALE,
                             devices=devices, max_iterations=cap)
        check_exchange(engine, graph, program)

    def test_cap_stops_a_row_on_a_live_frontier(self, small_social):
        """A cap of two supersteps stops a row on a non-empty frontier."""
        sources = [best_source(small_social), 0, 1]
        program = make_batched("BFS", sources)
        rows = [program_trace(small_social, make_program("BFS", source=s), 2)
                for s in sources]
        assert any(len(r) == 2 and r.mask(2).any() for r in rows)
        engine = ExchangeLog(spec=make_spec_for(small_social),
                             data_scale=TEST_SCALE, devices=4,
                             max_iterations=2)
        check_exchange(engine, small_social, program)

    def test_three_survivors_after_a_device_loss(self, small_social):
        program = make_batched("BFS", [best_source(small_social), 7, 300])
        t = run_engine("Sharded", small_social, lambda: program,
                       devices=4).elapsed_seconds
        plan = standard_fleet_plan(seed=0, n_devices=4, down_at=t / 2,
                                   degrade_start=t * 2, degrade_end=t * 3)
        engine = ExchangeLog(spec=make_spec_for(small_social),
                             data_scale=TEST_SCALE, devices=4,
                             fault_plan=plan, seed=0)
        res = check_exchange(engine, small_social, program)
        assert res.extra["device_losses"] == 1.0
        assert {len(live) for live, _ in engine.log.values()} == {4, 3}


class TestOutOfSingleDeviceCapacity:
    """The capacity claim: a graph whose edge array exceeds *every* single
    device still completes when sharded across the fabric."""

    def test_completes_beyond_single_device_capacity(self, small_social):
        g = small_social
        # Each device can hold vertex state plus ~40% of the edges — the
        # whole edge array fits no single device.
        cap = g.vertex_state_bytes + int(g.edge_array_bytes * 0.4)
        fabric = FabricSpec(n_devices=4, device_mems=(cap,) * 4)
        assert g.edge_array_bytes > cap  # the premise
        factory = lambda: make_program("BFS", source=best_source(g))

        reference = run_engine("Ascetic", g, factory)
        engine = registry.create("Sharded", spec=make_spec_for(g),
                                 data_scale=TEST_SCALE, fabric=fabric)
        res = engine.run(g, factory())
        assert np.array_equal(reference.values, res.values)
        # Every shard's slice actually fit its device (the extra is at
        # paper scale; cap is in scaled units like device_mems).
        assert res.extra["max_shard_edge_bytes"] * TEST_SCALE <= cap

        # Twice-run digests are bit-identical (the acceptance pin).
        engine2 = registry.create("Sharded", spec=make_spec_for(g),
                                  data_scale=TEST_SCALE, fabric=fabric)
        assert payload_digest(res) == payload_digest(engine2.run(g, factory()))
