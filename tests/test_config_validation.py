"""Configuration-validation tests: every bad knob fails loudly and early."""

import pytest

from repro.core.ascetic import AsceticEngine
from repro.core.static_region import StaticRegion
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.engines.uvm_engine import UVMEngine
from repro.gpusim.device import GPUSpec

from conftest import TEST_SCALE, make_spec_for


class TestAsceticConfig:
    def test_bad_fill_rejected_at_construction(self):
        with pytest.raises(ValueError, match="middle"):
            AsceticEngine(fill="middle")

    def test_forced_ratio_out_of_range(self, small_social):
        from repro.algorithms import make_program

        spec = make_spec_for(small_social)
        eng = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, forced_ratio=1.5,
        )
        with pytest.raises(ValueError):
            eng.run(small_social, make_program("CC"))

    def test_bad_k_rejected_at_prepare(self, small_social):
        from repro.algorithms import make_program

        spec = make_spec_for(small_social)
        eng = AsceticEngine(
            spec=spec, data_scale=TEST_SCALE, k=1.0
        )
        with pytest.raises(ValueError):
            eng.run(small_social, make_program("CC"))

    def test_unknown_switch_rejected(self):
        with pytest.raises(TypeError):
            AsceticEngine(bogus=1)


class TestEngineArguments:
    def test_negative_pinned_partitions(self):
        with pytest.raises(ValueError):
            PartitionEngine(pinned_partitions=-2)

    def test_pin_fraction_bounds(self):
        with pytest.raises(ValueError):
            UVMEngine(pin_fraction=-0.1)

    @pytest.mark.parametrize("cls", [PartitionEngine, SubwayEngine, UVMEngine, AsceticEngine])
    def test_data_scale_bounds(self, cls):
        with pytest.raises(ValueError):
            cls(data_scale=0)
        with pytest.raises(ValueError):
            cls(data_scale=2.0)


class TestSpecValidation:
    def test_all_invalid_fields_raise(self):
        bad = [
            dict(memory_bytes=0),
            dict(uvm_page_size=-1),
            dict(uvm_fault_batch=0),
            dict(uvm_fault_latency=-1.0),
            dict(uvm_migration_bandwidth=0),
            dict(uvm_kernel_penalty=0.9),
            dict(uvm_prefetch_pages=-1),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                GPUSpec(**kwargs)


class TestStaticRegionValidation:
    def test_bad_fragment(self, small_social):
        with pytest.raises(ValueError):
            StaticRegion(small_social, 100, fragment_chunks=0)


class TestServeConfigDoor:
    """Each of these ran silently; the config refuses it once, at
    construction, naming the key (the CLI reports it as a usage error)."""

    @pytest.mark.parametrize("key, value", [
        ("batch_wait", -1.0),
        ("batch_wait", float("nan")),
        ("aging_seconds", float("nan")),
        ("max_batch", 2.5),
        ("max_engines", True),
        ("queue_capacity", 0),
    ])
    def test_serve_config_rejects(self, key, value):
        from dataclasses import replace

        from repro.serve.simulator import quick_config

        with pytest.raises(ValueError, match=key):
            replace(quick_config(0), scale=1e-5, n_requests=6, **{key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_fleet_config_rejects_shard_over(self, value):
        from repro.serve.fleet import FleetConfig

        with pytest.raises(ValueError, match="shard_over"):
            FleetConfig(shard_over=value)

    def test_documented_edges_stay_valid(self):
        """``batch_wait=0`` dispatches at once; ``shard_over=None`` turns
        sharding off."""
        from dataclasses import replace

        from repro.serve.fleet import FleetConfig
        from repro.serve.simulator import quick_config

        serve = replace(quick_config(0), batch_wait=0.0)
        assert FleetConfig(serve=serve, shard_over=None).shard_over is None

    def test_cli_reports_a_refused_value_as_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--shard-over", "inf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "shard_over" in err
