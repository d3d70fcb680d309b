"""Model-vs-measurement: closed-form predictions match engine metrics."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.graph.properties import best_source

from conftest import TEST_SCALE, make_spec_for
from predict_oracles import (
    predict_pt_bytes,
    predict_subway_bytes,
    record_active_trace,
)


class TestActiveTrace:
    def test_records_every_iteration(self, small_social):
        prog = make_program("CC")
        trace = record_active_trace(small_social, prog)
        assert trace.iterations > 1
        assert len(trace.n_active_edges) == trace.iterations
        # Iteration 1 of CC activates everyone.
        assert trace.n_active_vertices[0] == small_social.n_vertices
        assert trace.n_active_edges[0] == small_social.n_edges


@pytest.mark.parametrize("algo", ["BFS", "CC"])
class TestPredictionsMatchEngines:
    def _program(self, algo, graph):
        if algo in ("BFS", "SSSP"):
            return make_program(algo, source=best_source(graph))
        return make_program(algo)

    def test_subway_exact(self, algo, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        trace = record_active_trace(small_social, self._program(algo, small_social))
        predicted = predict_subway_bytes(
            small_social, trace, spec, data_scale=TEST_SCALE
        )
        measured = SubwayEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, self._program(algo, small_social)
        )
        assert measured.metrics.bytes_h2d == predicted

    def test_pt_exact(self, algo, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        trace = record_active_trace(small_social, self._program(algo, small_social))
        predicted = predict_pt_bytes(small_social, trace, spec, data_scale=TEST_SCALE)
        measured = PartitionEngine(spec=spec, data_scale=TEST_SCALE).run(
            small_social, self._program(algo, small_social)
        )
        assert measured.metrics.bytes_h2d == predicted

    def test_pt_double_buffer_exact(self, algo, small_social):
        spec = make_spec_for(small_social, edge_fraction=0.4)
        trace = record_active_trace(small_social, self._program(algo, small_social))
        predicted = predict_pt_bytes(
            small_social, trace, spec, data_scale=TEST_SCALE, double_buffer=True
        )
        measured = PartitionEngine(
            spec=spec, data_scale=TEST_SCALE, double_buffer=True
        ).run(small_social, self._program(algo, small_social))
        assert measured.metrics.bytes_h2d == predicted
