"""Tests for the metrics counter bundle."""

import pytest

from repro.gpusim.metrics import Metrics


class TestMetrics:
    def test_defaults_zero(self):
        m = Metrics()
        assert m.bytes_h2d == 0
        assert m.page_faults == 0
        assert dict(m.phase_seconds) == {}

    def test_add_phase_accumulates(self):
        m = Metrics()
        m.add_phase("Tsr", 1.0)
        m.add_phase("Tsr", 0.5)
        assert m.phase_seconds["Tsr"] == 1.5

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            Metrics().add_phase("Tsr", -0.1)

    def test_as_dict(self):
        m = Metrics()
        m.bytes_h2d = 42
        m.add_phase("Tondemand", 1.0)
        d = m.as_dict()
        assert d["bytes_h2d"] == 42
        assert d["phase:Tondemand"] == 1.0
        assert "kernel_launches" in d

    def test_as_dict_phase_keys_sorted(self):
        m = Metrics()
        m.add_phase("b", 1.0)
        m.add_phase("a", 1.0)
        keys = [k for k in m.as_dict() if k.startswith("phase:")]
        assert keys == sorted(keys)
