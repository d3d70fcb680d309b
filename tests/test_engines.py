"""Behavioural tests for the three baseline engines."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.validate import reference_bfs_levels
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.engines.uvm_engine import UVMEngine
from repro.graph.properties import best_source
from repro.gpusim.device import GPUSpec
from repro.gpusim.memory import GPUOutOfMemory

from conftest import TEST_SCALE, make_spec_for


def bfs_for(graph):
    return make_program("BFS", source=best_source(graph))


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", [PartitionEngine, UVMEngine, SubwayEngine])
    def test_values_correct(self, cls, small_social):
        spec = make_spec_for(small_social)
        res = cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))
        ref = reference_bfs_levels(small_social, best_source(small_social))
        assert np.array_equal(res.values, ref)

    @pytest.mark.parametrize("cls", [PartitionEngine, UVMEngine, SubwayEngine])
    def test_deterministic(self, cls, small_social):
        spec = make_spec_for(small_social)
        a = cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))
        b = cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.metrics.bytes_h2d == b.metrics.bytes_h2d

    @pytest.mark.parametrize("cls", [PartitionEngine, UVMEngine, SubwayEngine])
    def test_time_and_bytes_positive(self, cls, small_social):
        spec = make_spec_for(small_social)
        res = cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))
        assert res.elapsed_seconds > 0
        assert res.metrics.bytes_h2d > 0
        assert res.iterations > 1

    @pytest.mark.parametrize("cls", [PartitionEngine, UVMEngine, SubwayEngine])
    def test_per_iteration_records(self, cls, small_social):
        spec = make_spec_for(small_social)
        res = cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))
        assert len(res.per_iteration) == res.iterations
        for rec in res.per_iteration:
            assert rec.t_end >= rec.t_start
            assert rec.n_active_vertices > 0

    @pytest.mark.parametrize("cls", [PartitionEngine, UVMEngine, SubwayEngine])
    def test_oom_when_vertex_state_does_not_fit(self, cls, small_social):
        spec = GPUSpec(memory_bytes=1024)
        with pytest.raises(GPUOutOfMemory):
            cls(spec=spec, data_scale=TEST_SCALE).run(small_social, bfs_for(small_social))

    def test_invalid_data_scale(self, small_social):
        with pytest.raises(ValueError):
            SubwayEngine(data_scale=0.0)
        with pytest.raises(ValueError):
            SubwayEngine(data_scale=1.5)


class TestPartitionEngine:
    def test_moves_whole_partitions(self, small_social):
        """PT re-ships touched partitions every iteration — bytes ≫ active."""
        spec = make_spec_for(small_social, edge_fraction=0.4)
        pt = PartitionEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        sub = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert pt.metrics.bytes_h2d > 2 * sub.metrics.bytes_h2d

    def test_reports_partition_count(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.3)
        res = PartitionEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert res.extra["n_partitions"] >= 3

    def test_single_partition_when_fits(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=1.5)
        res = PartitionEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert res.extra["n_partitions"] == 1


class TestSubwayEngine:
    def test_transfers_only_active_edges(self, small_social):
        """Subway's total BFS traffic ≈ one pass over reached edges."""
        spec = make_spec_for(small_social)
        res = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        # Per-edge-once property of BFS: processing bytes ≲ 1.3× dataset.
        assert res.transfer_over_dataset < 1.5

    def test_gpu_idles_through_gather(self, small_social):
        spec = make_spec_for(small_social)
        res = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert res.gpu_idle_fraction > 0.3  # §2.2's sequential-pipeline idle

    def test_avg_iteration_bytes_reported(self, small_social):
        spec = make_spec_for(small_social)
        res = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, bfs_for(small_social)
        )
        assert res.extra["avg_iteration_bytes"] > 0
        # Table 2's point: far below device memory (paper scale).
        assert res.extra["avg_iteration_bytes"] < spec.memory_bytes / TEST_SCALE

    def test_rounds_when_staging_overflows(self, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.02)
        res = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, make_program("CC")
        )
        # Iteration 1 activates everything: must split into rounds yet
        # still finish correctly.
        assert res.iterations > 1


class TestUVMEngine:
    def test_faults_counted(self, small_social):
        spec = make_spec_for(small_social)
        res = UVMEngine(spec=spec, data_scale=TEST_SCALE, pin_fraction=0.0).run(
            small_social, bfs_for(small_social)
        )
        assert res.metrics.page_faults > 0
        assert res.metrics.fault_batches > 0
        assert res.metrics.pages_migrated == res.metrics.page_faults

    def test_pinning_reduces_faults(self, small_social):
        spec = make_spec_for(small_social)
        prog = make_program("CC")
        none = UVMEngine(spec=spec, data_scale=TEST_SCALE, pin_fraction=0.0).run(
            small_social, prog
        )
        pinned = UVMEngine(spec=spec, data_scale=TEST_SCALE, pin_fraction=0.5).run(
            small_social, make_program("CC")
        )
        assert pinned.metrics.page_faults < none.metrics.page_faults

    def test_invalid_pin_fraction(self):
        with pytest.raises(ValueError):
            UVMEngine(pin_fraction=1.5)

    def test_access_trace_has_one_entry_per_iteration(self):
        from repro.analysis.traces import fold_access_trace
        from repro.harness.experiments import make_workload, run_workload

        w = make_workload("GS", "BFS", scale=5e-5)
        res = run_workload(w, "UVM", pin_fraction=0.0, record_events=True)
        trace, _ = fold_access_trace(res, w.graph)
        assert trace.n_iterations == res.iterations
        assert not hasattr(UVMEngine(), "trace")

    def test_page_geometry_scaled(self, small_social):
        spec = make_spec_for(small_social)
        eng = UVMEngine(spec=spec, data_scale=TEST_SCALE)
        eng.run(small_social, bfs_for(small_social))
        assert eng._uvm.page_size == int(spec.uvm_page_size * TEST_SCALE)

    def test_charges_round_like_every_other_engine(self):
        # At scale 1e-5 the charge factor 1/1e-5 is 99999.99999999999, so
        # truncating a charge instead of rounding it loses edges.
        from repro.harness.experiments import make_workload, run_workload

        workload = make_workload("GS", "BFS", scale=1e-5)
        edges = {engine: run_workload(workload, engine).metrics.edges_processed
                 for engine in ("UVM", "Subway", "Ascetic")}
        assert edges == dict.fromkeys(edges, 1_800_000_000)


class TestUVMPrefetch:
    def test_sequential_prefetch_reduces_faults_on_local_graph(self, small_web):
        """The wavefront of an id-local BFS touches adjacent pages next
        iteration — sequential prefetch turns those faults into hits."""
        from repro.gpusim.device import GPUSpec
        from dataclasses import replace

        base = make_spec_for(small_web, edge_fraction=0.6)
        spec_pf = replace(base, uvm_prefetch_pages=4)
        prog = lambda: bfs_for(small_web)
        plain = UVMEngine(spec=base, data_scale=TEST_SCALE, pin_fraction=0.0).run(
            small_web, prog()
        )
        prefetched = UVMEngine(
            spec=spec_pf, data_scale=TEST_SCALE, pin_fraction=0.0
        ).run(small_web, prog())
        assert prefetched.metrics.page_faults < plain.metrics.page_faults
        assert np.array_equal(prefetched.values, plain.values)

    def test_prefetch_counts_bytes(self, small_web):
        from dataclasses import replace

        base = make_spec_for(small_web, edge_fraction=0.6)
        spec_pf = replace(base, uvm_prefetch_pages=8)
        res = UVMEngine(spec=spec_pf, data_scale=TEST_SCALE, pin_fraction=0.0).run(
            small_web, bfs_for(small_web)
        )
        # Prefetched bytes ride along in H2D accounting.
        assert res.metrics.bytes_h2d > 0
