"""Tests for the multi-device fabric: specs, topology, and shared-log charging."""

from dataclasses import fields

import pytest

from repro.gpusim.device import GPUSpec
from repro.gpusim.events import validate_log
from repro.gpusim.fabric import (
    NVLINK_BANDWIDTH,
    NVLINK_LATENCY,
    Fabric,
    FabricSpec,
    LinkSpec,
    fold_exchange_bytes,
)

from event_log_oracles import rows


class TestFabricSpec:
    def test_defaults(self):
        spec = FabricSpec()
        assert spec.n_devices == 1
        assert spec.topology == "pcie"
        assert [f.name for f in fields(FabricSpec)] == ["n_devices", "topology"]

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError, match="topology"):
            FabricSpec(topology="infiniband")

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError, match="n_devices"):
            FabricSpec(n_devices=0)

    @pytest.mark.parametrize("bad", [2.7, 1.9, True, False, None, "2.5",
                                     "two", [2], 2.0, "2", -1])
    def test_from_dict_rejects_non_integer_device_count(self, bad):
        """A fabric read from a dict goes through the constructor, which is
        the only door: ``True`` built a 1-device fabric and ``2.7`` failed
        later inside ``Fabric`` with a ``TypeError`` that does not name the
        key."""
        with pytest.raises(ValueError, match="n_devices"):
            FabricSpec(**{"n_devices": bad})

    def test_roundtrip(self):
        spec = FabricSpec(n_devices=4, topology="nvlink")
        assert FabricSpec(**spec.to_dict()) == spec

    def test_default_roundtrip_is_compact(self):
        spec = FabricSpec(n_devices=2)
        d = spec.to_dict()
        assert d == {"n_devices": 2, "topology": "pcie"}
        assert FabricSpec(**d) == spec

    def test_sharded_engine_rejects_fractional_fabric(self):
        from repro.engines.sharded import ShardedEngine

        with pytest.raises(ValueError, match="n_devices"):
            ShardedEngine(fabric=FabricSpec(n_devices=2.7))


class TestLinkSpec:
    def test_transfer_seconds(self):
        link = LinkSpec(kind="pcie", bandwidth=1e9, latency=1e-5)
        assert link.copy_cost(0) == (1e-5, 0.0)
        assert link.copy_cost(1_000_000) == (1e-5, 1_000_000 / 1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(kind="pcie", bandwidth=0.0, latency=0.0)
        with pytest.raises(ValueError):
            LinkSpec(kind="pcie", bandwidth=1.0, latency=-1.0)
        with pytest.raises(ValueError):
            LinkSpec(kind="pcie", bandwidth=float("nan"), latency=0.0)


class TestFabricTopology:
    def test_pcie_peer_link_bounces_through_host(self):
        base = GPUSpec()
        link = Fabric(FabricSpec(n_devices=2, topology="pcie"),
                      base).device_link
        assert link.kind == "pcie"
        assert link.bandwidth == pytest.approx(base.pcie.bandwidth / 2)
        assert link.latency == pytest.approx(base.pcie.latency * 2)

    def test_nvlink_defaults(self):
        link = Fabric(FabricSpec(n_devices=2, topology="nvlink"),
                      GPUSpec()).device_link
        assert link.kind == "nvlink"
        assert link.bandwidth == NVLINK_BANDWIDTH
        assert link.latency == NVLINK_LATENCY
        # NVLink-class peers are an order of magnitude above host PCIe.
        assert link.bandwidth > GPUSpec().pcie.bandwidth

    def test_link_selection(self):
        fab = Fabric(FabricSpec(n_devices=2), GPUSpec(), record_events=True)
        end = fab.transfer(0, 1, 1_000_000)
        fixed, variable = fab.device_link.copy_cost(1_000_000)
        assert end == pytest.approx(fixed + variable)
        with pytest.raises(ValueError, match="itself"):
            fab.transfer(1, 1, 10)

    def test_per_device_gpu_spec(self):
        # Every device is the base spec: what a sharded run's inner
        # engines are built on.
        base = GPUSpec().with_memory(111_111)
        fab = Fabric(FabricSpec(n_devices=3), base)
        assert [g.spec for g in fab.devices] == [base] * 3
        assert [g.memory.capacity for g in fab.devices] == [111_111] * 3


class TestFabric:
    def make(self, n=2, **kw):
        kw.setdefault("record_events", True)
        return Fabric(FabricSpec(n_devices=n), **kw)

    def test_devices_share_clock_and_log(self):
        fab = self.make()
        assert fab.devices[0].clock is fab.devices[1].clock is fab.clock
        assert fab.devices[0].events is fab.devices[1].events is fab.events

    def test_lane_keys_are_device_qualified(self):
        fab = self.make()
        fab.devices[0].h2d(1000, label="a")
        fab.devices[1].edge_kernel(500, label="b")
        keys = set(fab.events.lane_stats)
        assert "copy@0" in keys
        assert "gpu@1" in keys

    def test_transfer_charges_sender_link_port(self):
        fab = self.make()
        end = fab.transfer(0, 1, 10_000, label="halo")
        assert end > 0
        (e,) = [e for e in rows(fab.events.events) if e.kind == "d2d"]
        assert e.device == 0  # the sender's port
        assert e.lane_key == "link@0"
        assert dict(e.extra)["bytes"] == 10_000.0
        assert dict(e.extra)["dst"] == 1.0
        assert fab.exchange_bytes == 10_000
        assert fab.exchange_bytes_of(0) == 10_000
        assert fab.exchange_bytes_of(1) == 0

    def test_transfer_charge_scale(self):
        fab = Fabric(FabricSpec(n_devices=2), charge_scale=100.0,
                     record_events=True)
        fab.transfer(0, 1, 10)
        assert fab.exchange_bytes == 1000  # scaled-bytes x charge_scale

    def test_zero_byte_transfer_is_free(self):
        fab = self.make()
        fab.transfer(0, 1, 0)
        assert fab.exchange_bytes == 0
        assert not [e for e in rows(fab.events.events) if e.kind == "d2d"]

    def test_fold_exchange_matches_incremental(self):
        fab = self.make(n=3)
        fab.all_exchange({(0, 1): 100, (1, 2): 250, (2, 0): 50})
        folded = fold_exchange_bytes(fab.events.events)
        assert folded == {0: 100, 1: 250, 2: 50}
        assert sum(folded.values()) == fab.exchange_bytes

    def test_senders_overlap_but_each_port_serializes(self):
        fab = self.make(n=2)
        # Two sends from the same port serialize; sends from different
        # ports start together.
        t1 = fab.transfer(0, 1, 1_000_000)
        t2 = fab.transfer(0, 1, 1_000_000)
        assert t2 == pytest.approx(2 * t1)
        t3 = fab.transfer(1, 0, 1_000_000)
        assert t3 == pytest.approx(t1)

    def test_sync_all_advances_clock(self):
        fab = self.make()
        fab.devices[1].edge_kernel(10_000, label="k")
        end = fab.transfer(0, 1, 1_000_000)
        horizon = fab.sync_all()
        assert horizon >= end
        assert fab.elapsed == horizon

    def test_phase_attribution(self):
        fab = self.make()
        with fab.phase("Texchange", iteration=3):
            fab.transfer(0, 1, 1000)
        (e,) = [e for e in rows(fab.events.events) if e.kind == "d2d"]
        assert e.phase == "Texchange"
        assert e.iteration == 3

    def test_per_device_metrics_fold(self):
        fab = self.make()
        fab.devices[0].h2d(1_000_000, label="fill")
        fab.devices[1].h2d(64_000, label="fill")
        # Each device's copy is its own row of the shared log, counters
        # included (sizes round up to the transfer granule, so compare,
        # not pin).
        h2d = [e for e in rows(fab.events.events) if e.h2d_transfers]
        assert [(e.device, e.h2d_transfers) for e in h2d] == [(0, 1), (1, 1)]
        assert h2d[0].bytes_h2d >= 1_000_000
        assert h2d[1].bytes_h2d < h2d[0].bytes_h2d

    def test_log_validates(self):
        fab = self.make()
        fab.devices[0].h2d(4096, label="fill")
        fab.devices[1].edge_kernel(100, label="k")
        fab.transfer(0, 1, 500)
        horizon = fab.sync_all()
        validate_log(fab.events, horizon=horizon)

    def test_gpu_idle_fraction_per_device(self):
        fab = self.make()
        fab.devices[0].edge_kernel(10_000, label="k")
        fab.sync_all()
        assert fab.gpu_idle_fraction(0) < 1.0
        assert fab.gpu_idle_fraction(1) == pytest.approx(1.0)
