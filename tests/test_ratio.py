"""Tests for the §3.3 partition-ratio equations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ratio import check_repartition, region_bytes, static_ratio


class TestEquation2:
    def test_paper_formula(self):
        # R = (1 − K·D/M)/(1 − K) with K=0.1, D=2M: R = (1−0.2)/0.9 ≈ 0.889
        assert static_ratio(0.1, 2_000, 1_000) == pytest.approx(0.8 / 0.9)

    def test_dataset_fits_means_all_static(self):
        assert static_ratio(0.1, 500, 1_000) == 1.0
        assert static_ratio(0.1, 1_000, 1_000) == 1.0

    def test_clips_to_zero_when_k_d_exceeds_m(self):
        # K·D ≥ M → Eq. 1 unsatisfiable → ratio clipped.
        assert static_ratio(0.5, 10_000, 1_000) == 0.0

    def test_floor_applied(self):
        # Eq. 2 goes negative here (K·D = 9 M); the floor is 0.
        assert static_ratio(0.9, 10_000, 1_000) == 0.0

    def test_k_zero_gives_full_static_cap(self):
        # K=0: nothing on demand; R = 1 (but D > M still caps at 1).
        assert static_ratio(0.0, 2_000, 1_000) == 1.0

    def test_monotone_decreasing_in_dataset(self):
        rs = [static_ratio(0.1, d, 1_000) for d in (1_500, 2_000, 4_000, 8_000)]
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            static_ratio(1.0, 10, 10)
        with pytest.raises(ValueError):
            static_ratio(-0.1, 10, 10)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            static_ratio(0.1, -1, 10)
        with pytest.raises(ValueError):
            static_ratio(0.1, 10, 0)

    @given(
        st.floats(0.0, 0.9),
        st.integers(1, 10**12),
        st.integers(1, 10**11),
    )
    def test_property_in_unit_interval(self, k, d, m):
        assert 0.0 <= static_ratio(k, d, m) <= 1.0

    @given(st.floats(0.01, 0.5), st.integers(10**6, 10**10))
    def test_property_eq1_satisfied(self, k, d):
        """When unclipped, Eq. 1 holds with equality:
        (D − M_static)·K + M_static = M."""
        m = d // 2
        r = static_ratio(k, d, m)
        if 0.0 < r < 1.0:
            m_static = r * m
            assert (d - m_static) * k + m_static == pytest.approx(m, rel=1e-9)


class TestRegionBytes:
    def test_split_sums_to_total(self):
        s, o = region_bytes(1000, 0.7, align=16)
        assert s + o == 1000
        assert s % 16 == 0

    def test_extremes(self):
        assert region_bytes(1000, 0.0) == (0, 1000)
        assert region_bytes(1000, 1.0) == (1000, 0)

    def test_alignment_rounds_down(self):
        s, _ = region_bytes(1000, 0.999, align=256)
        assert s == 768

    def test_invalid(self):
        with pytest.raises(ValueError):
            region_bytes(100, 1.5)
        with pytest.raises(ValueError):
            region_bytes(100, 0.5, align=0)


class TestEquation3:
    def test_no_overflow_no_repartition(self):
        d = check_repartition(
            v_ondemand=50, ondemand_capacity=100,
            v_static=10, static_capacity=100,
            v_total=60, dataset_bytes=1000,
        )
        assert not d.repartition

    def test_overflow_with_hot_static_keeps_region(self):
        # Static well-utilized: V_static/M_static ≥ 0.5·V/D.
        d = check_repartition(
            v_ondemand=200, ondemand_capacity=100,
            v_static=80, static_capacity=100,
            v_total=280, dataset_bytes=1000,
        )
        assert not d.repartition

    def test_overflow_with_cold_static_shrinks(self):
        d = check_repartition(
            v_ondemand=200, ondemand_capacity=100,
            v_static=1, static_capacity=1000,
            v_total=201, dataset_bytes=1000,
        )
        assert d.repartition
        # Eq. 3: shrink by M_static · V / D.
        assert d.shrink_bytes == int(1000 * 201 / 1000)

    def test_shrink_capped_at_capacity(self):
        d = check_repartition(
            v_ondemand=10**6, ondemand_capacity=1,
            v_static=0, static_capacity=100,
            v_total=10**6, dataset_bytes=1000,
        )
        assert d.repartition
        assert d.shrink_bytes <= 100

    def test_zero_static_capacity_no_op(self):
        d = check_repartition(200, 100, 0, 0, 200, 1000)
        assert not d.repartition

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_repartition(-1, 10, 0, 10, 0, 100)
        with pytest.raises(ValueError):
            check_repartition(1, 10, 0, 10, 0, 0)

    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**7),
    )
    def test_property_shrink_bounded(self, vod, cap, vstatic, mstatic, d):
        dec = check_repartition(vod, cap, vstatic, mstatic, vod + vstatic, d)
        assert 0 <= dec.shrink_bytes <= mstatic
