"""The transfer laws of PT and Subway, held superstep by superstep.

Each law is written from the engine's definition, over the frontiers a
program steps through from ``init_state`` (``tests/step_oracles.py``),
never from the engine's own helpers:

* Subway (§2.2) gathers exactly the active vertices' edges plus an 8-byte
  offset per active vertex: Σ_{active v} deg(v)·bytes_per_edge + 8·|active|
  a superstep;
* PT (§2.1) ships whole every partition, not pinned, that holds an edge of
  an active vertex; before the first superstep, the vertex state and the
  pinned partitions.

The device moves bytes exactly (a 1-byte DMA burst at ``data_scale`` 1), so
each ``IterationRecord.bytes_h2d`` is the law's number itself; burst
rounding and round splitting are held in ``tests/test_round_streaming.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.engines.partition_based import PartitionEngine
from repro.engines.subway import SubwayEngine
from repro.graph.partition import partition_by_bytes
from repro.graph.properties import best_source

from conftest import make_spec_for
from step_oracles import record_active_trace


def exact_spec(graph):
    """Free memory for 40 % of the edge array, bytes moved as asked."""
    spec = make_spec_for(graph, edge_fraction=0.4)
    return replace(spec, pcie=replace(spec.pcie, burst=1))


def subway_bytes(graph, active) -> int:
    total = 0
    for v in np.flatnonzero(active):
        degree = int(graph.indptr[v + 1] - graph.indptr[v])
        total += degree * graph.bytes_per_edge + 8
    return total


def touched_partitions(graph, parts, active):
    """The partitions whose edge range meets an active vertex's."""
    touched = set()
    for v in np.flatnonzero(active):
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        touched |= {p.pid for p in parts if max(p.e_lo, lo) < min(p.e_hi, hi)}
    return sorted(touched)


class TestActiveTrace:
    def test_records_every_iteration(self, small_social):
        trace = record_active_trace(small_social, make_program("CC"))
        assert len(trace.masks) > 1
        assert len(trace.iteration_numbers) == len(trace.masks) + 1
        # Iteration 1 of CC activates everyone.
        assert trace.masks[0].all()


@pytest.mark.parametrize("algo", ["BFS", "CC"])
class TestPredictionsMatchEngines:
    def _program(self, algo, graph):
        if algo in ("BFS", "SSSP"):
            return make_program(algo, source=best_source(graph))
        return make_program(algo)

    def test_subway_exact(self, algo, small_social):
        graph, spec = small_social, exact_spec(small_social)
        masks = record_active_trace(graph, self._program(algo, graph)).masks
        result = SubwayEngine(spec=spec).run(graph, self._program(algo, graph))
        assert [r.bytes_h2d for r in result.per_iteration] == [
            subway_bytes(graph, mask) for mask in masks]
        assert result.metrics.bytes_h2d == graph.vertex_state_bytes + sum(
            r.bytes_h2d for r in result.per_iteration)

    def check_pt(self, algo, graph, double_buffer, pinned):
        spec = exact_spec(graph)
        slots = (2 if double_buffer else 1) + pinned
        parts = partition_by_bytes(
            graph, (spec.memory_bytes - graph.vertex_state_bytes) // slots)
        assert len(parts) > pinned + 1
        masks = record_active_trace(graph, self._program(algo, graph)).masks
        result = PartitionEngine(
            spec=spec, double_buffer=double_buffer, pinned_partitions=pinned,
        ).run(graph, self._program(algo, graph))
        assert [r.bytes_h2d for r in result.per_iteration] == [
            sum(parts[pid].nbytes
                for pid in touched_partitions(graph, parts, mask)
                if pid >= pinned)
            for mask in masks]
        prefill = graph.vertex_state_bytes + sum(p.nbytes for p in parts[:pinned])
        assert result.metrics.bytes_h2d == prefill + sum(
            r.bytes_h2d for r in result.per_iteration)

    def test_pt_exact(self, algo, small_social):
        for pinned in (0, 2):
            self.check_pt(algo, small_social, False, pinned)

    def test_pt_double_buffer_exact(self, algo, small_social):
        self.check_pt(algo, small_social, True, 0)
