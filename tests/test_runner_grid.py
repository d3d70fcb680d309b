"""Tests for the grid executor: parallelism, caching, fault isolation."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.engines import registry
from repro.engines.subway import SubwayEngine
from repro.gpusim.faults import standard_plan
from repro.runner import ResultCache, RunSpec, grid_specs, run_grid

SCALE = 5e-5


def _result_fingerprint(result):
    """Everything that must be bit-identical between serial and parallel."""
    return (
        result.engine,
        result.algorithm,
        result.graph_name,
        result.values.tobytes(),
        str(result.values.dtype),
        result.iterations,
        result.elapsed_seconds,
        result.gpu_idle_fraction,
        tuple(sorted(result.metrics.as_dict().items())),
        tuple(sorted(result.extra.items())),
        tuple(tuple(sorted(r.__dict__.items())) for r in result.per_iteration),
    )


class _ExplodingEngine:
    """Raises on every run — the injected worker exception."""

    def __init__(self, **kwargs):
        pass

    def run(self, graph, program, resume_from=None):
        raise RuntimeError("injected failure")


class _CrashingEngine:
    """Kills its process outright — the hard worker crash."""

    def __init__(self, **kwargs):
        pass

    def run(self, graph, program, resume_from=None):
        os._exit(7)


class _SleepingEngine:
    """Never finishes inside any reasonable budget."""

    def __init__(self, **kwargs):
        pass

    def run(self, graph, program, resume_from=None):
        time.sleep(60)


class _CrashAt3Engine(SubwayEngine):
    """Dies at iteration 3 of every from-scratch run; survives a resume."""

    name = "CrashAt3"

    def _iteration(self, gpu, graph, program, state):
        if self.resumed_iteration is None and state.iteration == 3:
            raise RuntimeError("simulated mid-run crash")
        super()._iteration(gpu, graph, program, state)


@pytest.fixture
def fault_engines():
    registry.register("Exploding", _ExplodingEngine)
    registry.register("Crashing", _CrashingEngine)
    registry.register("Sleeping", _SleepingEngine)
    yield
    registry.unregister("Exploding")
    registry.unregister("Crashing")
    registry.unregister("Sleeping")


@pytest.fixture
def crash_at_3_engine():
    registry.register("CrashAt3", _CrashAt3Engine)
    yield
    registry.unregister("CrashAt3")


class TestEquivalence:
    def test_parallel_matches_serial_bitwise(self):
        specs = grid_specs(["GS", "FK"], ["BFS", "CC"], ["Subway", "Ascetic"], scale=SCALE)
        serial = run_grid(specs, jobs=1)
        parallel = run_grid(specs, jobs=4)
        assert serial.n_failed == parallel.n_failed == 0
        for s_cell, p_cell in zip(serial.cells, parallel.cells):
            assert s_cell.spec == p_cell.spec
            assert _result_fingerprint(s_cell.result) == _result_fingerprint(p_cell.result)

    def test_cached_replay_matches_computed(self, tmp_path):
        spec = RunSpec("FK", "BFS", "Ascetic", scale=SCALE)
        first = run_grid([spec], jobs=1, cache=tmp_path)
        second = run_grid([spec], jobs=1, cache=tmp_path)
        assert first.cells[0].status == "ok"
        assert second.cells[0].status == "cached"
        assert _result_fingerprint(first.cells[0].result) == _result_fingerprint(
            second.cells[0].result
        )


class TestCaching:
    def test_warm_cache_reruns_zero_cells(self, tmp_path):
        specs = grid_specs(["GS", "FK"], ["BFS"], ["Subway", "Ascetic"], scale=SCALE)
        cold = run_grid(specs, jobs=2, cache=tmp_path)
        assert cold.cache.misses == len(specs)
        assert cold.cache.stores == len(specs)
        warm = run_grid(specs, jobs=2, cache=tmp_path)
        assert warm.n_cached == len(specs)
        assert warm.n_ok == 0
        assert warm.cache.hits == len(specs)

    def test_cache_accepts_path_and_cache_object(self, tmp_path):
        spec = RunSpec("FK", "BFS", "Subway", scale=SCALE)
        run_grid([spec], cache=str(tmp_path))
        report = run_grid([spec], cache=ResultCache(tmp_path))
        assert report.cells[0].status == "cached"

    def test_duplicate_specs_computed_once(self):
        spec = RunSpec("FK", "BFS", "Subway", scale=SCALE)
        report = run_grid([spec, spec], jobs=1)
        assert len(report.cells) == 2
        assert all(c.ok for c in report.cells)
        assert report.cells[0].result is report.cells[1].result

    def test_no_cache_means_no_stats(self):
        report = run_grid([RunSpec("FK", "BFS", "Subway", scale=SCALE)])
        assert report.cache is None


class TestFaultIsolation:
    def test_exception_degrades_cell_only(self, fault_engines):
        specs = [
            RunSpec("FK", "BFS", "Exploding", scale=SCALE),
            RunSpec("FK", "BFS", "Subway", scale=SCALE),
        ]
        report = run_grid(specs, jobs=2, retries=1)
        bad, good = report.cells
        assert bad.status == "failed"
        assert "injected failure" in bad.error
        assert bad.attempts == 2  # first try + one retry
        assert good.status == "ok"
        assert good.result is not None

    def test_hard_crash_degrades_cell_only(self, fault_engines):
        specs = [
            RunSpec("FK", "BFS", "Crashing", scale=SCALE),
            RunSpec("FK", "BFS", "Subway", scale=SCALE),
        ]
        report = run_grid(specs, jobs=2, retries=1)
        bad, good = report.cells
        assert bad.status == "failed"
        assert "worker crashed" in bad.error
        assert bad.attempts == 2
        assert good.status == "ok"

    def test_serial_exception_degrades_cell_only(self, fault_engines):
        specs = [
            RunSpec("FK", "BFS", "Exploding", scale=SCALE),
            RunSpec("FK", "BFS", "Subway", scale=SCALE),
        ]
        report = run_grid(specs, jobs=1, retries=0)
        assert report.cells[0].status == "failed"
        assert report.cells[0].attempts == 1
        assert report.cells[1].status == "ok"

    def test_timeout_enforced_in_worker(self, fault_engines):
        report = run_grid(
            [RunSpec("FK", "BFS", "Sleeping", scale=SCALE)],
            jobs=2,
            timeout=0.5,
            retries=0,
        )
        cell = report.cells[0]
        assert cell.status == "failed"
        assert "time" in cell.error.lower()

    def test_timeout_enforced_serially(self, fault_engines):
        report = run_grid(
            [RunSpec("FK", "BFS", "Sleeping", scale=SCALE)],
            jobs=1,
            timeout=0.5,
            retries=0,
        )
        assert report.cells[0].status == "failed"
        assert "time budget" in report.cells[0].error

    def test_failed_cells_never_cached(self, fault_engines, tmp_path):
        spec = RunSpec("FK", "BFS", "Exploding", scale=SCALE)
        run_grid([spec], jobs=1, retries=0, cache=tmp_path)
        report = run_grid([spec], jobs=1, retries=0, cache=tmp_path)
        assert report.cells[0].status == "failed"
        assert report.cache.hits == 0


class TestEdgeCases:
    """``retries=0`` / ``timeout=None`` are explicit, documented contracts."""

    def test_retries_zero_is_one_attempt_parallel(self, fault_engines):
        report = run_grid(
            [RunSpec("FK", "BFS", "Exploding", scale=SCALE)], jobs=2, retries=0
        )
        assert report.cells[0].status == "failed"
        assert report.cells[0].attempts == 1

    def test_timeout_none_installs_no_timer(self):
        # With no budget to enforce, run_grid must leave the signal
        # plumbing completely untouched.
        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            report = run_grid(
                [RunSpec("GS", "BFS", "Subway", scale=SCALE)], jobs=1,
                timeout=None,
            )
            assert report.cells[0].status == "ok"
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_sigalrm_detection_off_main_thread(self):
        from repro.runner.executor import _can_use_sigalrm

        assert _can_use_sigalrm()  # pytest runs tests on the main thread
        seen = {}
        t = threading.Thread(
            target=lambda: seen.setdefault("value", _can_use_sigalrm())
        )
        t.start()
        t.join()
        assert seen["value"] is False

    def test_inline_timeout_falls_back_off_main_thread(self):
        # Off the main thread no alarm can be armed: the documented
        # fallback is to run the cell to completion, not to fail.
        box = {}

        def work():
            box["report"] = run_grid(
                [RunSpec("GS", "BFS", "Subway", scale=SCALE)], jobs=1,
                timeout=0.001, retries=0,
            )

        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert box["report"].cells[0].status == "ok"


class TestCheckpointResume:
    def test_without_checkpoints_every_attempt_crashes(self, crash_at_3_engine):
        report = run_grid(
            [RunSpec("GS", "BFS", "CrashAt3", scale=SCALE)], jobs=1, retries=1
        )
        assert report.cells[0].status == "failed"
        assert report.cells[0].attempts == 2

    def test_retry_resumes_from_checkpoint_serial(self, crash_at_3_engine,
                                                  tmp_path):
        spec = RunSpec("GS", "BFS", "CrashAt3", scale=SCALE)
        report = run_grid([spec], jobs=1, retries=1,
                          checkpoint_dir=str(tmp_path))
        cell = report.cells[0]
        assert cell.status == "ok"
        assert cell.attempts == 2  # crashed once, resumed past iteration 3
        subway = run_grid(
            [RunSpec("GS", "BFS", "Subway", scale=SCALE)], jobs=1
        ).cells[0].result
        assert np.array_equal(cell.result.values, subway.values)
        assert os.listdir(tmp_path) == []  # cleared on success

    def test_retry_resumes_from_checkpoint_parallel(self, crash_at_3_engine,
                                                    tmp_path):
        spec = RunSpec("GS", "BFS", "CrashAt3", scale=SCALE)
        report = run_grid([spec], jobs=2, retries=1,
                          checkpoint_dir=str(tmp_path))
        cell = report.cells[0]
        assert cell.status == "ok"
        assert cell.attempts == 2
        assert os.listdir(tmp_path) == []

    def test_grid_specs_stamp_chaos_fields(self):
        plan = standard_plan()
        specs = grid_specs(["GS"], ["BFS"], ["Subway"], scale=SCALE,
                           seed=3, fault_plan=plan)
        assert specs[0].seed == 3
        assert specs[0].fault_plan == plan


class TestReport:
    def test_result_map_shape(self):
        specs = grid_specs(["FK"], ["BFS"], ["Subway", "Ascetic"], scale=SCALE)
        report = run_grid(specs, jobs=1)
        grid = report.result_map()
        assert set(grid) == {("FK", "BFS")}
        assert set(grid[("FK", "BFS")]) == {"Subway", "Ascetic"}

    def test_summary_mentions_counts(self, tmp_path):
        spec = RunSpec("FK", "BFS", "Subway", scale=SCALE)
        report = run_grid([spec], cache=tmp_path)
        text = report.summary()
        assert "1 computed" in text
        assert "cache:" in text

    def test_validates_arguments(self):
        spec = RunSpec("FK", "BFS", "Subway", scale=SCALE)
        with pytest.raises(ValueError):
            run_grid([spec], jobs=0)
        with pytest.raises(ValueError):
            run_grid([spec], retries=-1)
        with pytest.raises(TypeError):
            run_grid(["not-a-spec"])

    def test_unknown_dataset_fails_cell_not_grid(self):
        report = run_grid([RunSpec("ZZ", "BFS", "Subway", scale=SCALE)], jobs=1)
        assert report.cells[0].status == "failed"
        assert report.n_failed == 1
