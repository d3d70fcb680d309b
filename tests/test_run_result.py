"""Tests for RunResult reporting semantics."""

import numpy as np
import pytest

from repro.engines.base import RunResult
from repro.gpusim.metrics import Metrics


def make_result(**overrides):
    base = dict(
        engine="Ascetic",
        algorithm="BFS",
        graph_name="FK",
        values=np.arange(4),
        iterations=3,
        elapsed_seconds=1.5,
        metrics=Metrics(),
        gpu_idle_fraction=0.25,
    )
    base.update(overrides)
    return RunResult(**base)


class TestRunResult:
    def test_processing_excludes_prefill(self):
        m = Metrics()
        m.bytes_h2d = 1000
        r = make_result(metrics=m)
        r.extra["static_prefill_bytes"] = 400.0
        assert r.processing_bytes_h2d == 600.0

    def test_processing_equals_total_without_prefill(self):
        m = Metrics()
        m.bytes_h2d = 1000
        assert make_result(metrics=m).processing_bytes_h2d == 1000

    def test_transfer_over_dataset(self):
        m = Metrics()
        m.bytes_h2d = 500
        r = make_result(metrics=m)
        r.extra["dataset_bytes"] = 250.0
        assert r.transfer_over_dataset == 2.0

    def test_transfer_over_dataset_nan_without_size(self):
        assert np.isnan(make_result().transfer_over_dataset)

    def test_summary_contains_key_fields(self):
        s = make_result().summary()
        for token in ("Ascetic", "BFS", "FK", "iters=3"):
            assert token in s
