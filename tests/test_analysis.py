"""Tests for the analysis tooling behind the tables and figures."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.analysis.active_edges import active_edge_fractions, table1_row
from repro.analysis.breakdown import measure_breakdown
from repro.analysis.report import format_table, geomean, human_bytes, sparkline
from repro.analysis.traces import AccessTrace, trace_uvm_run
from repro.engines import registry
from repro.graph.properties import best_source
from repro.harness.experiments import make_workload, run_workload

SCALE = 5e-5


class TestAccessTrace:
    def test_record_and_events(self):
        t = AccessTrace([1.0, 2.0], [np.array([0, 1, 2]), np.array([1, 3])])
        times, chunks = t.events()
        assert times.size == 5
        assert list(chunks) == [0, 1, 2, 1, 3]

    def test_access_counts(self):
        t = AccessTrace([0.0, 1.0], [np.array([0, 1]), np.array([1])])
        assert list(t.access_counts(3)) == [1, 2, 0]

    def test_empty_trace(self):
        t = AccessTrace()
        times, chunks = t.events()
        assert times.size == 0
        s = t.summarize(10)
        assert s.n_iterations == 0

    def test_fig2_claims_on_uvm_run(self):
        """The §2 observations: near-sequential per-iteration scans, flat
        access counts, full coverage over the run."""
        trace, summary, result = trace_uvm_run(
            make_workload("FK", "PR", scale=SCALE))
        assert summary.n_iterations == result.iterations
        assert summary.sequentiality > 0.8  # "roughly sequential scan"
        assert summary.count_cv < 1.0  # "no noticeable hot spot"
        assert summary.touched_fraction > 0.9

    @pytest.mark.parametrize("algo", ["PR", "SSSP", "CC"])
    def test_log_fold_equals_a_per_iteration_recording(self, algo):
        """The trace folded from the recorded log is the one a hook reading
        the pager's page set at each superstep's start would record, and
        recording moves no modelled number."""
        w = make_workload("FK", algo, scale=SCALE)
        trace, summary, result = trace_uvm_run(w)

        engine = registry.create("UVM", spec=w.spec, data_scale=w.scale,
                                 pin_fraction=0.0)
        hooked = AccessTrace()

        def hook(eng, gpu, graph, state):
            hooked.times.append(gpu.clock.now)
            hooked.chunk_sets.append(eng._touched_pages(graph, state.active))

        engine.iteration_hook = hook
        plain = engine.run(w.graph, w.fresh_program())

        assert trace.times == hooked.times
        assert trace.times == [r.t_start for r in plain.per_iteration]
        assert len(trace.chunk_sets) == len(hooked.chunk_sets)
        for got, want in zip(trace.chunk_sets, hooked.chunk_sets):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        assert any(c.size for c in trace.chunk_sets)
        assert summary.n_chunks == engine._uvm.n_pages
        assert summary == hooked.summarize(engine._uvm.n_pages)
        assert result.elapsed_seconds == plain.elapsed_seconds
        assert result.metrics.as_dict() == plain.metrics.as_dict()


class TestActiveEdges:
    def test_fractions_in_unit_interval(self, small_social):
        fr = active_edge_fractions(small_social, make_program("CC"))
        assert all(0.0 <= f <= 1.0 for f in fr)
        assert len(fr) > 1

    def test_bfs_total_is_reached_edges(self, small_social):
        src = best_source(small_social)
        fr = active_edge_fractions(small_social, make_program("BFS", source=src))
        # BFS touches each reached vertex's edges exactly once.
        assert sum(fr) <= 1.0 + 1e-9

    def test_table1_row(self, small_social):
        row = table1_row(
            small_social,
            {
                "BFS": make_program("BFS", source=best_source(small_social)),
                "CC": make_program("CC"),
            },
        )
        assert set(row) == {"BFS", "CC"}
        assert 0 < row["BFS"] < row["CC"] <= 1.0


class TestMemoryUsage:
    def test_table2_cell(self):
        """Table 2's cell and §2.2's idle share are read off one Subway run."""
        w = make_workload("FK", "BFS", scale=SCALE)
        res = run_workload(w, "Subway")
        usage = res.extra["avg_iteration_bytes"]
        assert 0 < usage < w.spec.memory_bytes / w.scale
        assert 0.0 < res.gpu_idle_fraction < 1.0


class TestBreakdown:
    def test_savings_decompose(self):
        w = make_workload("FK", "CC", scale=SCALE)
        bd = measure_breakdown(w)
        assert bd.subway_seconds == run_workload(w, "Subway").elapsed_seconds
        assert bd.no_overlap_seconds == run_workload(
            w, "Ascetic", overlap=False).elapsed_seconds
        assert bd.ascetic_seconds == run_workload(w, "Ascetic").elapsed_seconds
        assert bd.static_saving + bd.overlap_saving == pytest.approx(bd.total_saving)
        assert bd.total_saving > 0.0
        assert bd.overlap_saving >= 0.0


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_empty_nan(self):
        assert np.isnan(geomean([]))

    def test_sparkline(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == " " and s[-1] == "█"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=50)) == 50

    def test_sparkline_flat(self):
        assert sparkline([5, 5, 5]) == "   "

    def test_human_bytes(self):
        assert human_bytes(512) == "512B"
        assert human_bytes(2048) == "2.00KB"
        assert human_bytes(3 * 1024**3) == "3.00GB"
