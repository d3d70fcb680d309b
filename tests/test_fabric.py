"""Tests for the multi-device fabric: specs, topology, and shared-log charging."""

import pytest

from repro.gpusim.device import GPUSpec
from repro.gpusim.events import validate_log
from repro.gpusim.fabric import (
    NVLINK_BANDWIDTH,
    NVLINK_LATENCY,
    Fabric,
    FabricSpec,
    FabricTopology,
    LinkSpec,
    fold_exchange_bytes,
)

from event_log_oracles import rows


class TestFabricSpec:
    def test_defaults(self):
        spec = FabricSpec()
        assert spec.n_devices == 1
        assert spec.topology == "pcie"
        assert spec.device_mems is None

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError, match="topology"):
            FabricSpec(topology="infiniband")

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError, match="n_devices"):
            FabricSpec(n_devices=0)

    def test_rejects_mismatched_device_mems(self):
        with pytest.raises(ValueError, match="device_mems"):
            FabricSpec(n_devices=3, device_mems=(100, 200))

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError, match="positive"):
            FabricSpec(n_devices=2, device_mems=(100, 0))

    def test_roundtrip(self):
        spec = FabricSpec(n_devices=4, topology="nvlink",
                          device_mems=(10, 20, 30, 40),
                          d2d_bandwidth=1e9, d2d_latency=1e-6,
                          h2d_bandwidth=2e9)
        assert FabricSpec.from_dict(spec.to_dict()) == spec

    def test_default_roundtrip_is_compact(self):
        spec = FabricSpec(n_devices=2)
        d = spec.to_dict()
        assert d == {"n_devices": 2, "topology": "pcie"}
        assert FabricSpec.from_dict(d) == spec

    def test_heterog_style_dict(self):
        # The HeteroG config idiom: device memories as floats, both link
        # bandwidths as one [d2d, h2d] pair in MB/s, often strings.
        spec = FabricSpec.from_dict({
            "device_mems": [13e9, 13e9, 10e9, 10e9],
            "bandwidth": ["10000", "747"],
            "topology": "nvlink",
        })
        assert spec.n_devices == 4  # inferred from device_mems
        assert spec.device_mems == (int(13e9), int(13e9),
                                    int(10e9), int(10e9))
        assert spec.d2d_bandwidth == pytest.approx(10000 * 1e6)
        assert spec.h2d_bandwidth == pytest.approx(747 * 1e6)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FabricSpec.from_dict({"n_devices": 2, "nvlinks": 4})

    @pytest.mark.parametrize("bad", [2.7, 1.9, True, False, None, "2.5",
                                     "two", [2]])
    def test_from_dict_rejects_non_integer_device_count(self, bad):
        """Was truncated (2.7 → 2, true → 1), or a message without the key."""
        with pytest.raises(ValueError, match="n_devices"):
            FabricSpec.from_dict({"n_devices": bad})
        with pytest.raises(ValueError, match="n_devices"):
            FabricSpec.from_dict({"n_devices": bad, "device_mems": [1, 2]})

    @pytest.mark.parametrize("data,key", [
        ({"d2d_bandwidth": float("nan")}, "d2d_bandwidth"),
        ({"h2d_bandwidth": float("inf")}, "h2d_bandwidth"),
        ({"d2d_latency": float("nan")}, "d2d_latency"),
        ({"h2d_bandwidth": True}, "h2d_bandwidth"),
        ({"d2d_latency": False}, "d2d_latency"),
        ({"bandwidth": 5}, "bandwidth"),
        ({"bandwidth": [float("nan"), 747]}, "bandwidth"),
        ({"bandwidth": ["10000", True]}, "bandwidth"),
        ({"device_mems": [True, 2]}, "device_mems"),
        ({"device_mems": [2.7, 2]}, "device_mems"),
        ({"device_mems": [float("nan"), 2]}, "device_mems"),
        ({"device_mems": [float("inf"), 2]}, "device_mems"),
        ({"device_mems": "12"}, "device_mems"),
        ({"device_mems": 5}, "device_mems"),
    ], ids=["nan-d2d", "inf-h2d", "nan-latency", "bool-h2d", "bool-latency",
            "scalar-pair", "nan-in-pair", "bool-in-pair", "bool-mem",
            "fractional-mem", "nan-mem", "inf-mem", "string-mems",
            "scalar-mems"])
    def test_from_dict_rejects_bad_link_numbers(self, data, key):
        """Each built a spec (NaN passes ``<= 0``, ``true`` is 1 B/s or a
        1-byte device, ``2.7`` a 2-byte one, ``"12"`` two devices of 1 and
        2 bytes), or raised an error that does not name the key
        (``len(5)``, ``int(nan)``)."""
        with pytest.raises(ValueError, match=key):
            FabricSpec.from_dict({"n_devices": 2, **data})

    def test_from_dict_accepts_integral_float_memories(self):
        spec = FabricSpec.from_dict({"device_mems": [13e9, 10e9]})
        assert spec.device_mems == (13_000_000_000, 10_000_000_000)
        assert spec.n_devices == 2

    @pytest.mark.parametrize("good", [2, 2.0, "2"])
    def test_from_dict_accepts_integral_device_count(self, good):
        assert FabricSpec.from_dict({"n_devices": good}) == FabricSpec(n_devices=2)

    def test_sharded_engine_rejects_fractional_fabric(self):
        from repro.engines.sharded import ShardedEngine

        with pytest.raises(ValueError, match="n_devices"):
            ShardedEngine(fabric={"n_devices": 1.9})

    def test_memory_of(self):
        spec = FabricSpec(n_devices=2, device_mems=(1000, 2000))
        assert spec.memory_of(1, default=7) == 2000
        assert FabricSpec(n_devices=2).memory_of(1, default=7) == 7


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
        topo = FabricTopology(FabricSpec(n_devices=2, topology="pcie"), base)
        assert topo.device_link.kind == "pcie"
        assert topo.device_link.bandwidth == pytest.approx(
            base.pcie.bandwidth / 2)
        assert topo.device_link.latency == pytest.approx(
            base.pcie.latency * 2)

    def test_nvlink_defaults(self):
        topo = FabricTopology(FabricSpec(n_devices=2, topology="nvlink"),
                              GPUSpec())
        assert topo.device_link.kind == "nvlink"
        assert topo.device_link.bandwidth == NVLINK_BANDWIDTH
        assert topo.device_link.latency == NVLINK_LATENCY
        # NVLink-class peers are an order of magnitude above host PCIe.
        assert topo.device_link.bandwidth > GPUSpec().pcie.bandwidth

    def test_link_selection(self):
        topo = FabricTopology(FabricSpec(n_devices=2), GPUSpec())
        assert topo.link(0, 1) is topo.device_link
        with pytest.raises(ValueError, match="itself"):
            topo.link(1, 1)

    def test_per_device_gpu_spec(self):
        spec = FabricSpec(n_devices=2, device_mems=(111_111, 222_222),
                          h2d_bandwidth=5e8)
        topo = FabricTopology(spec, GPUSpec())
        assert topo.gpu_spec(0).memory_bytes == 111_111
        assert topo.gpu_spec(1).memory_bytes == 222_222
        assert topo.gpu_spec(0).pcie.bandwidth == pytest.approx(5e8)


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
