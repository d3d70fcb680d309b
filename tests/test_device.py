"""Tests for the SimulatedGPU facade, including paper-scale charging."""

import pytest

from repro.gpusim.device import GPUSpec, SimulatedGPU


@pytest.fixture()
def gpu():
    return SimulatedGPU(GPUSpec(memory_bytes=10**6))


class TestCharging:
    def test_h2d_counts_payload(self, gpu):
        gpu.h2d(100)
        assert gpu.metrics.bytes_h2d == gpu.spec.pcie.payload_bytes(100)
        assert gpu.metrics.h2d_transfers == 1

    def test_zero_h2d_not_counted(self, gpu):
        gpu.h2d(0)
        assert gpu.metrics.h2d_transfers == 0

    def test_charge_scale_multiplies_bytes(self):
        spec = GPUSpec(memory_bytes=10**6)
        unscaled = SimulatedGPU(spec)
        scaled = SimulatedGPU(spec, charge_scale=100.0)
        unscaled.h2d(10**5)
        scaled.h2d(10**3)
        assert scaled.metrics.bytes_h2d == unscaled.metrics.bytes_h2d
        assert scaled.copy.busy_until == unscaled.copy.busy_until

    def test_charge_scale_multiplies_edges(self):
        spec = GPUSpec()
        a = SimulatedGPU(spec)
        b = SimulatedGPU(spec, charge_scale=10.0)
        a.edge_kernel(1000)
        b.edge_kernel(100)
        assert a.gpu.busy_until == b.gpu.busy_until
        assert a.metrics.edges_processed == b.metrics.edges_processed

    def test_invalid_charge_scale(self):
        with pytest.raises(ValueError):
            SimulatedGPU(GPUSpec(), charge_scale=0.0)

    def test_phase_accounting(self, gpu):
        with gpu.phase("Ttransfer"):
            gpu.h2d(1000)
        with gpu.phase("Tsr"):
            gpu.edge_kernel(1000)
        assert gpu.metrics.phase_seconds["Ttransfer"] > 0
        assert gpu.metrics.phase_seconds["Tsr"] > 0

    def test_phase_context_restores(self, gpu):
        with gpu.phase("Touter", iteration=3):
            with gpu.phase("Tinner"):
                assert gpu.events.current_phase == "Tinner"
                assert gpu.events.current_iteration == 3
            assert gpu.events.current_phase == "Touter"
        assert gpu.events.current_phase is None
        assert gpu.events.current_iteration is None

    @pytest.mark.parametrize("raises", [False, True])
    def test_nested_stamps_restore_phase_and_iteration(self, gpu, raises):
        """Nested ``phase`` / ``iteration`` blocks put back both values on
        the way out, also when the body raises; ``iteration`` leaves the
        phase alone.  The stamps are plain context-manager objects, not
        ``contextlib`` generators (a serving pass enters ~10^5 of them)."""
        log = gpu.events
        seen = []

        def body():
            with gpu.iteration(7) as dev:
                assert dev is gpu
                with gpu.phase("Touter", iteration=3):
                    with gpu.phase("Tinner"):
                        seen.append((log.current_phase, log.current_iteration))
                        with gpu.iteration(9):
                            seen.append((log.current_phase,
                                         log.current_iteration))
                            if raises:
                                raise KeyError("body")
                        seen.append((log.current_phase, log.current_iteration))
                    seen.append((log.current_phase, log.current_iteration))
                seen.append((log.current_phase, log.current_iteration))

        if raises:
            with pytest.raises(KeyError):
                body()
        else:
            body()
        expected = [("Tinner", 3), ("Tinner", 9), ("Tinner", 3),
                    ("Touter", 3), (None, 7)]
        assert seen == (expected[:2] if raises else expected)
        assert (log.current_phase, log.current_iteration) == (None, None)
        assert type(gpu.phase("T")).__module__ == "repro.gpusim.device"
        assert type(gpu.iteration(1)).__module__ == "repro.gpusim.device"

    def test_zero_ops_uniformly_skipped(self, gpu):
        """Empty ops leave no counters, no lane time, and no events."""
        gpu = SimulatedGPU(GPUSpec(memory_bytes=10**6), record_events=True)
        gpu.h2d(0)
        gpu.d2h(0)
        gpu.edge_kernel(0)
        gpu.vertex_scan(0)
        gpu.vertex_scan(100, passes=0)
        gpu.cpu_gather(0)
        gpu.cpu_work(0.0)
        assert len(gpu.events.events) == 0
        assert gpu.metrics.as_dict() == {
            k: 0 for k in gpu.metrics.as_dict()
        }
        for lane in (gpu.gpu, gpu.copy, gpu.cpu):
            assert lane.key not in gpu.events.lane_stats
            assert lane.busy_until == 0.0


class TestScheduling:
    def test_lanes_independent(self, gpu):
        t_copy = gpu.h2d(10**6)
        t_gpu = gpu.edge_kernel(10**6)
        assert t_copy > 0 and t_gpu > 0
        assert gpu.clock.now == 0.0  # nothing synced yet

    def test_sync_all(self, gpu):
        gpu.h2d(10**6)
        gpu.edge_kernel(10**6)
        gpu.cpu_gather(10**6)
        end = gpu.sync()
        assert gpu.clock.now == end
        assert end == max(
            gpu.gpu.busy_until, gpu.copy.busy_until, gpu.cpu.busy_until
        )

    def test_dependency_chain(self, gpu):
        t1 = gpu.cpu_gather(10**6)
        t2 = gpu.h2d(10**6, after=t1)
        t3 = gpu.edge_kernel(10**6, after=t2)
        assert t1 < t2 < t3

    def test_idle_fraction(self, gpu):
        gpu.sync(gpu.cpu_gather(8 * 10**6))  # GPU idles through the gather
        gpu.sync(gpu.edge_kernel(100))
        assert 0.5 < gpu.gpu_idle_fraction() < 1.0

    def test_idle_fraction_zero_time(self, gpu):
        assert gpu.gpu_idle_fraction() == 0.0


class TestSpec:
    def test_with_memory(self):
        spec = GPUSpec(memory_bytes=100)
        assert spec.with_memory(500).memory_bytes == 500
        assert spec.with_memory(500).pcie is spec.pcie

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            GPUSpec(memory_bytes=0)

    def test_invalid_uvm_params(self):
        with pytest.raises(ValueError):
            GPUSpec(uvm_page_size=0)
        with pytest.raises(ValueError):
            GPUSpec(uvm_fault_latency=-1)
        with pytest.raises(ValueError):
            GPUSpec(uvm_kernel_penalty=0.5)

    def test_memory_allocator_uses_cap(self):
        gpu = SimulatedGPU(GPUSpec(memory_bytes=12345))
        assert gpu.memory.capacity == 12345
