"""Fault-plan/injector unit tests + cost-model property tests.

Covers the chaos-mode substrate in isolation: plan validation and
canonical serialization, the injector's determinism contract (same
``(seed, plan)`` ⇒ same draw sequence; independent fault classes do not
perturb each other's streams), and hypothesis properties of the PCIe
cost model the retry logic builds on.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.faults import (
    CapacitySqueeze,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    standard_plan,
)
from repro.gpusim.pcie import PCIeLink

from event_log_oracles import rows


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(transfer_fail_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(transfer_corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(transfer_fail_rate=0.6, transfer_corrupt_rate=0.5)

    def test_degradation_window_validation(self):
        with pytest.raises(ValueError):
            LinkDegradation(start=0.5, end=0.5, factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(start=0.0, end=1.0, factor=0.0)
        with pytest.raises(ValueError):
            LinkDegradation(start=0.0, end=1.0, factor=1.5)

    def test_squeeze_validation(self):
        with pytest.raises(ValueError):
            CapacitySqueeze(start_iteration=-1)
        with pytest.raises(ValueError):
            CapacitySqueeze(start_iteration=2, end_iteration=2)
        with pytest.raises(ValueError):
            CapacitySqueeze(start_iteration=0, fraction=1.0)
        sq = CapacitySqueeze(start_iteration=0, nbytes=100, fraction=0.5)
        assert sq.resolve(1000) == 500
        assert sq.resolve(100) == 100

    def test_null_plan_detection(self):
        assert FaultPlan().is_null
        assert not FaultPlan(transfer_fail_rate=0.1).is_null
        assert not FaultPlan(alloc_failures=("x",)).is_null
        assert not standard_plan().is_null

    def test_backoff_is_exponential(self):
        plan = FaultPlan(backoff_base=1e-4, backoff_factor=2.0)
        assert plan.backoff_seconds(0) == 1e-4
        assert plan.backoff_seconds(3) == 1e-4 * 8
        with pytest.raises(ValueError):
            plan.backoff_seconds(-1)


class TestPlanSerialization:
    def test_round_trip(self):
        plan = standard_plan()
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.fingerprint() == plan.fingerprint()

    def test_unknown_keys_raise(self):
        data = standard_plan().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError, match="unknown FaultPlan"):
            FaultPlan.from_dict(data)

    def test_fingerprint_tracks_content(self):
        base = FaultPlan(transfer_fail_rate=0.1)
        assert base.fingerprint() == FaultPlan(transfer_fail_rate=0.1).fingerprint()
        assert base.fingerprint() != FaultPlan(transfer_fail_rate=0.2).fingerprint()


class TestInjectorDeterminism:
    def test_same_seed_same_draws(self):
        plan = standard_plan()
        a = FaultInjector(plan, seed=42)
        b = FaultInjector(plan, seed=42)
        assert [a.transfer_outcome() for _ in range(200)] == [
            b.transfer_outcome() for _ in range(200)
        ]
        assert [a.kernel_outcome() for _ in range(200)] == [
            b.kernel_outcome() for _ in range(200)
        ]

    def test_different_seed_diverges(self):
        plan = FaultPlan(transfer_fail_rate=0.4)
        inj_a = FaultInjector(plan, seed=1)
        inj_b = FaultInjector(plan, seed=2)
        a = [inj_a.transfer_outcome() for _ in range(256)]
        b = [inj_b.transfer_outcome() for _ in range(256)]
        assert a != b

    def test_zero_rate_classes_skip_draws(self):
        """Adding transfer faults must not shift the kernel stream."""
        kernels_only = FaultPlan(kernel_abort_rate=0.2, kernel_slowdown_rate=0.2)
        inj = FaultInjector(kernels_only, seed=9)
        # transfer_outcome with no transfer rates consumes no randomness...
        for _ in range(50):
            assert inj.transfer_outcome() == "ok"
        fresh = FaultInjector(kernels_only, seed=9)
        # ...so the kernel stream is exactly what a fresh injector draws.
        assert [inj.kernel_outcome() for _ in range(50)] == [
            fresh.kernel_outcome() for _ in range(50)
        ]

    def test_alloc_failure_budget(self):
        plan = FaultPlan(alloc_failures=("buf", "buf", "other"))
        inj = FaultInjector(plan, seed=0)
        assert inj.alloc_should_fail("buf")
        assert inj.alloc_should_fail("buf")
        assert not inj.alloc_should_fail("buf")  # budget of 2 spent
        assert inj.alloc_should_fail("other")
        assert not inj.alloc_should_fail("unlisted")
        assert inj.counts["alloc_fail"] == 3

    def test_link_state_min_factor_and_fresh_windows(self):
        plan = FaultPlan(degradations=(
            LinkDegradation(start=0.0, end=1.0, factor=0.5),
            LinkDegradation(start=0.5, end=2.0, factor=0.25),
        ))
        inj = FaultInjector(plan, seed=0)
        factor, fresh = inj.link_state(0.1)
        assert factor == 0.5 and len(fresh) == 1
        factor, fresh = inj.link_state(0.6)  # both overlap: min wins
        assert factor == 0.25 and len(fresh) == 1  # only the new window
        factor, fresh = inj.link_state(0.7)
        assert factor == 0.25 and fresh == []  # both already noted
        factor, fresh = inj.link_state(5.0)
        assert factor == 1.0 and fresh == []
        assert inj.counts["degradation_windows"] == 2


class TestTransferCostProperties:
    """Property tests of the cost model the retry logic charges against."""

    @given(a=st.integers(min_value=0, max_value=1 << 32),
           b=st.integers(min_value=0, max_value=1 << 32))
    def test_transfer_seconds_monotonic_in_nbytes(self, a, b):
        link = PCIeLink()
        lo, hi = sorted((a, b))
        assert (sum(link.copy_cost(link.payload_bytes(lo)))
                <= sum(link.copy_cost(link.payload_bytes(hi))))


class TestBackoffDeterminism:
    """Same-seed device runs produce identical fault/backoff timelines."""

    def _faulty_timeline(self, seed):
        plan = FaultPlan(transfer_fail_rate=0.3, max_retries=8)
        gpu = SimulatedGPU(GPUSpec(), record_events=True,
                           faults=FaultInjector(plan, seed=seed))
        for i in range(40):
            gpu.h2d(1 << 20, label=f"t{i}")
        gpu.sync()
        return [(e.kind, e.label, e.start, e.end) for e in rows(gpu.events.events)]

    def test_same_seed_identical_backoff_schedule(self):
        first = self._faulty_timeline(7)
        second = self._faulty_timeline(7)
        assert first == second
        assert any(kind == "backoff" for kind, *_ in first)
        assert any(kind == "h2d-fault" for kind, *_ in first)

    def test_different_seed_different_schedule(self):
        assert self._faulty_timeline(7) != self._faulty_timeline(8)
