"""Tests for the PCIe, kernel, and host-gather cost models.

Each op kind is priced by one function returning ``(fixed, variable)``
seconds over scalars or NumPy arrays; the device ops, the round aggregate,
the swap budget and Hybrid's scores all call it.  The device skips empty
ops before pricing them (``test_device.py::test_zero_ops_uniformly_skipped``),
so a zero size here only has to stream for zero seconds.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.device import GPUSpec, SimulatedGPU
from repro.gpusim.host import HostGather
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeLink


def copy_seconds(link: PCIeLink, nbytes: int) -> float:
    """What one explicit copy of ``nbytes`` is charged."""
    return sum(link.copy_cost(link.payload_bytes(nbytes)))


def direct_seconds(link: PCIeLink, nbytes: int, n_accesses: int) -> float:
    """What ``n_accesses`` zero-copy loads of ``nbytes`` are charged."""
    return sum(link.direct_cost(link.direct_payload_bytes(nbytes), n_accesses))


class TestPCIe:
    def test_zero_transfer_free(self):
        assert PCIeLink().payload_bytes(0) == 0
        assert PCIeLink().copy_cost(0)[1] == 0.0

    def test_burst_rounding(self):
        link = PCIeLink(burst=16 * 1024)
        assert link.payload_bytes(1) == 16 * 1024
        assert link.payload_bytes(16 * 1024) == 16 * 1024
        assert link.payload_bytes(16 * 1024 + 1) == 32 * 1024

    def test_transfer_time_composition(self):
        link = PCIeLink(bandwidth=1e9, latency=1e-5, burst=1024)
        fixed, variable = link.copy_cost(link.payload_bytes(1024 * 1000))
        assert fixed == 1e-5
        assert variable == pytest.approx(1024 * 1000 / 1e9)

    def test_copies_pay_one_latency_each(self):
        link = PCIeLink(bandwidth=1e9, latency=1e-5, burst=1024)
        fixed, variable = link.copy_cost(10 * 1024, n=10)
        assert fixed == pytest.approx(10 * 1e-5)
        assert variable == link.copy_cost(10 * 1024)[1]

    def test_latency_dominates_small(self):
        link = PCIeLink()
        assert copy_seconds(link, 64) >= link.latency

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PCIeLink(bandwidth=0)
        with pytest.raises(ValueError):
            PCIeLink(latency=-1)
        with pytest.raises(ValueError):
            PCIeLink(burst=0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIeLink().payload_bytes(-1)

    @given(st.integers(0, 10**9))
    def test_property_payload_geq_bytes(self, n):
        link = PCIeLink()
        assert link.payload_bytes(n) >= n
        assert link.payload_bytes(n) - n < link.burst

    def test_device_copy_charges_copy_cost(self):
        gpu = SimulatedGPU(GPUSpec(), charge_scale=3.0)
        done = gpu.h2d(5000)
        assert done == copy_seconds(gpu.spec.pcie, 15000)
        assert gpu.d2h(5000, after=done) == 2 * done


class TestDirectAccess:
    """The zero-copy path: sector-granular, setup-free, half bandwidth."""

    def test_zero_free(self):
        link = PCIeLink()
        assert link.direct_payload_bytes(0) == 0
        assert link.direct_cost(0, 0) == (0.0, 0.0)

    def test_sector_rounding(self):
        link = PCIeLink(sector=128)
        assert link.direct_payload_bytes(1) == 128
        assert link.direct_payload_bytes(128) == 128
        assert link.direct_payload_bytes(129) == 256

    def test_no_burst_amplification(self):
        # The whole point of the path: a tiny read moves one sector, not
        # one DMA burst.
        link = PCIeLink()
        assert link.direct_payload_bytes(64) < link.payload_bytes(64)

    def test_time_composition(self):
        link = PCIeLink(direct_bandwidth=1e9, direct_latency=1e-8, sector=128)
        fixed, variable = link.direct_cost(link.direct_payload_bytes(256), 2)
        assert fixed == pytest.approx(2 * 1e-8)
        assert variable == pytest.approx(256 / 1e9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PCIeLink(direct_bandwidth=0)
        with pytest.raises(ValueError):
            PCIeLink(direct_latency=-1)
        with pytest.raises(ValueError):
            PCIeLink(sector=0)
        with pytest.raises(ValueError):
            PCIeLink().direct_payload_bytes(-1)

    @given(st.integers(0, 10**8))
    def test_property_monotone_in_bytes(self, n):
        link = PCIeLink()
        assert direct_seconds(link, n + 1, 1) >= direct_seconds(link, n, 1)
        assert link.direct_payload_bytes(n) >= n
        assert link.direct_payload_bytes(n) - n < link.sector

    @given(st.integers(1, 10**8), st.integers(1, 10**6))
    def test_property_monotone_in_accesses(self, n, a):
        link = PCIeLink()
        assert direct_seconds(link, n, a + 1) >= direct_seconds(link, n, a)

    @given(st.integers(1, 32 * 1024))
    def test_property_direct_wins_below_crossover(self, n):
        # One access per touched sector (the policy's charging convention):
        # small sparse footprints are the EMOGI regime, well under the
        # ~50 KB crossover at the default constants.
        link = PCIeLink()
        accesses = -(-n // link.sector)
        assert direct_seconds(link, n, accesses) < copy_seconds(link, n)

    @given(st.integers(128 * 1024, 10**8))
    def test_property_bulk_wins_above_crossover(self, n):
        # Large footprints: direct access's halved bandwidth dominates and
        # one explicit DMA is cheaper — the regime where migration wins.
        link = PCIeLink()
        accesses = -(-n // link.sector)
        assert direct_seconds(link, n, accesses) > copy_seconds(link, n)

    def test_device_direct_access_charges_direct_cost(self):
        gpu = SimulatedGPU(GPUSpec())
        link = gpu.spec.pcie
        done = gpu.direct_access(1000)
        assert done == direct_seconds(link, 1000, -(-1000 // link.sector))
        assert gpu.metrics.direct_accesses == 8


class TestKernelModel:
    def test_zero_edges_free(self):
        assert KernelModel().edge_cost(0, False)[1] == 0.0

    def test_launch_overhead_included(self):
        k = KernelModel(launch_overhead=1e-5)
        assert k.edge_cost(1, False)[0] == 1e-5
        assert k.edge_cost(1, False, n_launches=3)[0] == pytest.approx(3e-5)

    def test_atomics_penalty(self):
        k = KernelModel(atomic_penalty=2.0)
        plain = k.edge_cost(10**6, False)
        atomic = k.edge_cost(10**6, True)
        assert atomic[0] == plain[0]
        assert atomic[1] == pytest.approx(2.0 * plain[1])

    def test_vertex_scan_passes(self):
        k = KernelModel()
        assert sum(k.scan_cost(10**6, 2)) > sum(k.scan_cost(10**6, 1))

    def test_zero_scan_free(self):
        assert KernelModel().scan_cost(0, 1)[1] == 0.0
        assert KernelModel().scan_cost(100, 0)[1] == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            KernelModel(edge_throughput=0)
        with pytest.raises(ValueError):
            KernelModel(atomic_penalty=0.5)

    @given(st.integers(0, 10**10))
    def test_property_monotone(self, n):
        k = KernelModel()
        assert sum(k.edge_cost(n + 1, False)) >= sum(k.edge_cost(n, False))


class TestHostGather:
    def test_zero_free(self):
        assert HostGather().gather_cost(0)[1] == 0.0

    def test_setup_plus_stream(self):
        g = HostGather(bandwidth=1e9, setup=1e-4)
        assert g.gather_cost(10**9) == (1e-4, 1.0)
        assert g.gather_cost(10**9, n=4)[0] == pytest.approx(4e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            HostGather(bandwidth=0)
        with pytest.raises(ValueError):
            HostGather(setup=-1)


class TestArrays:
    """Every cost function prices an array elementwise, bit for bit."""

    SIZES = np.array([1.0, 128.0, 4096.0, 16384.0, 5e6])

    @pytest.mark.parametrize("cost", [
        lambda x: PCIeLink().copy_cost(x),
        lambda x: PCIeLink().copy_cost(x, n=7),
        lambda x: PCIeLink().direct_cost(x, np.ceil(x / 128)),
        lambda x: HostGather().gather_cost(x),
        lambda x: KernelModel().edge_cost(x, True),
        lambda x: KernelModel().scan_cost(x, 3),
    ])
    def test_array_equals_scalar(self, cost):
        fixed, variable = cost(self.SIZES)
        for i, x in enumerate(self.SIZES):
            f, v = cost(x)
            assert np.broadcast_to(fixed, self.SIZES.shape)[i] == f
            assert variable[i] == v

    @given(st.floats(1.0, 1e9), st.floats(1e6, 1e12), st.floats(1e6, 1e12))
    def test_property_bottleneck_identity(self, x, a, b):
        # Hybrid's gather score takes the slower stage as the larger of the
        # two variable terms; that equals bytes over the smaller bandwidth.
        assert max(x / a, x / b) == x / min(a, b)
