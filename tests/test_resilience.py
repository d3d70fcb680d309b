"""Engine resilience under injected faults.

The contract under chaos: faults cost virtual time, never correctness.
These tests drive each recovery path — transfer retry/backoff accounting,
kernel relaunch, transient-allocation absorption, per-engine capacity
squeezes, and Ascetic's static-shrink → pure-on-demand degradation
ladder — and assert both the recovery and its observability (counters,
``retry`` bucket, typed marker events).
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.events import FAULT_KINDS, idle_breakdown, validate_log
from repro.gpusim.faults import (
    CapacitySqueeze,
    FaultInjector,
    FaultPlan,
    KernelFaultError,
    TransferFaultError,
)
from repro.gpusim.memory import DeviceMemory, GPUOutOfMemory
from repro.harness.experiments import make_workload, run_workload

from event_log_oracles import rows

SCALE = 5e-5
ENGINES = ("PT", "UVM", "Subway", "Ascetic")


def _gpu(plan, seed=0, memory_bytes=None):
    spec = GPUSpec(memory_bytes=memory_bytes) if memory_bytes else GPUSpec()
    return SimulatedGPU(spec, record_events=True,
                        faults=FaultInjector(plan, seed=seed))


class TestTransferRetries:
    def test_retry_accounting(self):
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        gpu = _gpu(plan, seed=7)
        payload = gpu.spec.pcie.payload_bytes(1 << 20)
        n = 40
        for i in range(n):
            gpu.h2d(1 << 20, label=f"t{i}")
        gpu.sync()
        m = gpu.metrics
        assert m.transfer_faults > 0
        assert m.transfer_retries == m.transfer_faults  # every fault retried
        assert m.retry_seconds > 0.0
        # Byte counters only count useful traffic — failed attempts move
        # time, not accounted bytes.
        assert m.bytes_h2d == n * payload
        assert m.h2d_transfers == n
        validate_log(gpu.events, metrics=m, horizon=gpu.clock.now)

    def test_retry_bucket_in_idle_breakdown(self):
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        gpu = _gpu(plan, seed=7)
        for i in range(40):
            gpu.h2d(1 << 20, label=f"t{i}")
        gpu.sync()
        bd = idle_breakdown(gpu.events, "copy", gpu.clock.now)
        assert bd.retry > 0.0
        assert bd.retry == pytest.approx(gpu.metrics.retry_seconds)

    def test_fault_events_are_typed(self):
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        gpu = _gpu(plan, seed=7)
        for i in range(40):
            gpu.h2d(1 << 20, label=f"t{i}")
        gpu.sync()
        kinds = {e.kind for e in rows(gpu.events.events)}
        assert "h2d-fault" in kinds
        assert "backoff" in kinds
        assert kinds & FAULT_KINDS

    def test_exhausted_retries_raise(self):
        plan = FaultPlan(transfer_fail_rate=0.9, max_retries=0)
        gpu = _gpu(plan, seed=3)
        with pytest.raises(TransferFaultError):
            for i in range(64):
                gpu.h2d(1 << 20, label=f"t{i}")

    def test_corruption_counts_separately(self):
        plan = FaultPlan(transfer_corrupt_rate=0.4, max_retries=8)
        gpu = _gpu(plan, seed=5)
        for i in range(40):
            gpu.h2d(1 << 20, label=f"t{i}")
        gpu.sync()
        assert gpu.faults.counts["transfer_corrupt"] > 0
        assert gpu.faults.counts["transfer_fail"] == 0
        assert gpu.metrics.transfer_faults > 0  # corrupt attempts retried too


class TestKernelFaults:
    def test_abort_and_relaunch(self):
        plan = FaultPlan(kernel_abort_rate=0.3, max_retries=8)
        gpu = _gpu(plan, seed=11)
        for _ in range(40):
            gpu.edge_kernel(10_000, label="k")
        gpu.sync()
        m = gpu.metrics
        assert m.kernel_aborts > 0
        assert m.retry_seconds > 0.0
        # Useful work is counted once per successful launch.
        assert m.edges_processed == 40 * 10_000
        assert any(e.kind == "kernel-abort" for e in rows(gpu.events.events))
        validate_log(gpu.events, metrics=m, horizon=gpu.clock.now)

    def test_exhausted_kernel_retries_raise(self):
        plan = FaultPlan(kernel_abort_rate=0.9, max_retries=0)
        gpu = _gpu(plan, seed=2)
        with pytest.raises(KernelFaultError):
            for _ in range(64):
                gpu.edge_kernel(10_000, label="k")

    def test_slowdown_stretches_duration(self):
        slow = FaultPlan(kernel_slowdown_rate=0.5, kernel_slowdown_factor=3.0)
        gpu = _gpu(slow, seed=4)
        for _ in range(40):
            gpu.edge_kernel(10_000, label="k")
        gpu.sync()
        clean = SimulatedGPU(GPUSpec())
        for _ in range(40):
            clean.edge_kernel(10_000, label="k")
        clean.sync()
        assert gpu.faults.counts["kernel_slow"] > 0
        assert gpu.clock.now > clean.clock.now


class TestAllocationFaults:
    def test_injected_failure_is_transient(self):
        plan = FaultPlan(alloc_failures=("buf",))
        mem = DeviceMemory(1 << 20, faults=FaultInjector(plan, seed=0))
        with pytest.raises(GPUOutOfMemory) as exc:
            mem.alloc("buf", 1024)
        assert exc.value.injected
        assert exc.value.requested == 1024
        a = mem.alloc("buf", 1024)  # budget spent: the retry lands
        assert a.nbytes == 1024

    def test_real_oom_payload_is_structured(self):
        mem = DeviceMemory(4096)
        mem.alloc("a", 3000)
        with pytest.raises(GPUOutOfMemory) as exc:
            mem.alloc("b", 2000)
        e = exc.value
        assert not e.injected
        assert e.name == "b"
        assert e.requested == 2000
        assert e.available == 1096
        assert e.capacity == 4096
        assert e.live == {"a": 3000}

    def test_zero_byte_allocs_bypass_injection(self):
        plan = FaultPlan(alloc_failures=("buf",) * 5)
        mem = DeviceMemory(1 << 20, faults=FaultInjector(plan, seed=0))
        assert mem.alloc("buf", 0).nbytes == 0  # ladders must terminate


class TestCapacitySqueeze:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_absorbs_a_squeeze(self, engine):
        plan = FaultPlan(squeezes=(
            CapacitySqueeze(start_iteration=1, end_iteration=3, fraction=0.3),
        ))
        w = make_workload("GS", "BFS", scale=SCALE)
        baseline = run_workload(w, engine)
        squeezed = run_workload(w, engine, record_events=True,
                                fault_plan=plan, seed=0)
        assert np.array_equal(squeezed.values, baseline.values)
        kinds = {e.kind for e in rows(squeezed.event_log.events)}
        assert "squeeze" in kinds
        assert "squeeze-release" in kinds
        validate_log(squeezed.event_log, metrics=squeezed.metrics,
                     horizon=squeezed.elapsed_seconds)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_oversized_squeeze_never_crashes(self, engine):
        # A squeeze bigger than what the engine can possibly free must be
        # clamped, not surface as an unhandled GPUOutOfMemory.
        plan = FaultPlan(squeezes=(
            CapacitySqueeze(start_iteration=1, fraction=0.95),
        ))
        w = make_workload("GS", "BFS", scale=SCALE)
        result = run_workload(w, engine, fault_plan=plan, seed=0)
        baseline = run_workload(w, engine)
        assert np.array_equal(result.values, baseline.values)


class TestAsceticDegradation:
    def test_transient_static_failure_recovers_in_place(self):
        w = make_workload("GS", "BFS", scale=SCALE)
        plan = FaultPlan(alloc_failures=("static_region",))
        baseline = run_workload(w, "Ascetic")
        result = run_workload(w, "Ascetic", record_events=True,
                              fault_plan=plan, seed=0)
        # One injected failure → one plain retry at full size: the run is
        # *schedule*-identical to fault-free apart from the marker.
        assert np.array_equal(result.values, baseline.values)
        assert result.extra["fault_alloc_fail"] == 1.0
        assert any(e.kind == "alloc-fault" for e in rows(result.event_log.events))
        assert not any(e.kind == "static-degrade"
                       for e in rows(result.event_log.events))

    def test_repeated_failures_degrade_to_pure_ondemand(self):
        w = make_workload("GS", "BFS", scale=SCALE)
        plan = FaultPlan(alloc_failures=("static_region",) * 24)
        baseline = run_workload(w, "Ascetic")
        result = run_workload(w, "Ascetic", record_events=True,
                              fault_plan=plan, seed=0)
        assert np.array_equal(result.values, baseline.values)
        degrades = [e for e in rows(result.event_log.events)
                    if e.kind == "static-degrade"]
        assert degrades, "the shrink ladder never reported degradation"
        # The ladder bottomed out: the static region granted zero bytes —
        # Subway-style pure on-demand streaming.
        granted = dict(degrades[-1].extra).get("granted")
        assert granted == 0.0
        assert result.extra["fault_alloc_fail"] > 1.0
        validate_log(result.event_log, metrics=result.metrics,
                     horizon=result.elapsed_seconds)
