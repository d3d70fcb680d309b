"""Tests for the wall-clock perf harness (``repro bench``)."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    all_benchmarks,
    compare_reports,
    default_report_name,
    load_report,
    make_report,
    run_benchmarks,
    time_callable,
    write_report,
)


class TestRegistry:
    def test_suite_covers_required_surface(self):
        benches = all_benchmarks()
        names = [b.name for b in benches]
        assert len(names) >= 8
        assert len(set(names)) == len(names)
        # Micro kernels and end-to-end macros both present.
        kinds = {b.kind for b in benches}
        assert kinds == {"micro", "macro"}
        groups = {n.split("/")[0] for n in names}
        assert {"frontier", "static_region", "events", "engine"} <= groups

    def test_sorted_and_stable(self):
        assert [b.name for b in all_benchmarks()] == sorted(
            b.name for b in all_benchmarks()
        )

    def test_duplicate_name_rejected(self):
        from repro.bench.registry import register

        existing = all_benchmarks()[0].name
        with pytest.raises(ValueError, match="already registered"):
            register(existing, kind="micro", description="dup")(lambda quick: None)

    def test_bad_kind_rejected(self):
        from repro.bench.registry import register

        with pytest.raises(ValueError, match="kind"):
            register("x/y", kind="huge", description="")(lambda quick: None)


class TestTiming:
    def test_best_and_mean(self):
        calls = []
        t = time_callable(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6  # warmup + repeats
        assert t.repeats == 4
        assert 0 <= t.best <= t.mean

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)


class TestRunBenchmarks:
    def test_micro_benchmark_end_to_end(self):
        results = run_benchmarks(
            names={"static_region/chunk_touch_counts"}, quick=True
        )
        assert set(results) == {"static_region/chunk_touch_counts"}
        r = results["static_region/chunk_touch_counts"]
        assert r["kind"] == "micro"
        assert r["best_seconds"] > 0
        assert r["best_seconds"] <= r["mean_seconds"]
        assert r["units"]["edges"] > 0
        assert r["throughput"]["edges_per_second"] > 0

    def test_scaled_chunk_benchmarks_end_to_end(self):
        """The two micro benches at the engines' own (sub-edge) chunk size
        run, do real work, and are gated by the checked-in baseline."""
        import json
        import pathlib

        names = {"replacement/plan_swaps", "hybrid/policy_plan"}
        results = run_benchmarks(names=names, quick=True)
        assert set(results) == names
        for r in results.values():
            assert r["kind"] == "micro"
            assert r["best_seconds"] > 0
            assert r["units"]["chunks"] > 0
        baseline = json.loads(
            (pathlib.Path(__file__).parent.parent / "benchmarks"
             / "BENCH_baseline.json").read_text())
        assert names <= set(baseline["benchmarks"])

    def test_hot_path_set_benchmarks_end_to_end(self):
        """The pager and CC-superstep micro benches run, do real work, and
        are in the checked-in baseline."""
        import pathlib

        units = {"uvm/touch": "pages", "algorithms/cc_step": "edges"}
        results = run_benchmarks(names=set(units), quick=True)
        assert set(results) == set(units)
        for name, unit in units.items():
            assert results[name]["best_seconds"] > 0
            assert results[name]["units"][unit] > 0
        baseline = json.loads(
            (pathlib.Path(__file__).parent.parent / "benchmarks"
             / "BENCH_baseline.json").read_text())
        assert set(units) <= set(baseline["benchmarks"])


class TestReport:
    @staticmethod
    def _fake_results(best=1.0):
        return {
            "some/bench": {
                "kind": "micro", "description": "d", "best_seconds": best,
                "mean_seconds": best * 1.1, "repeats": 3,
                "units": {"edges": 10.0},
                "throughput": {"edges_per_second": 10.0 / best},
            }
        }

    def test_round_trip(self, tmp_path):
        report = make_report(self._fake_results(), quick=True)
        assert report["schema_version"] == SCHEMA_VERSION
        assert default_report_name(report) == f"BENCH_{report['revision']}.json"
        path = tmp_path / "BENCH_test.json"
        write_report(str(path), report)
        loaded = load_report(str(path))
        assert loaded == report

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "benchmarks": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_report(str(path))

    def test_environment_fingerprint(self):
        env = make_report(self._fake_results())["environment"]
        assert {"python", "numpy", "platform", "cpu_count"} <= set(env)


class TestComparator:
    @staticmethod
    def _report(times):
        return {
            "schema_version": SCHEMA_VERSION,
            "revision": "x",
            "environment": {},
            "benchmarks": {
                name: {"best_seconds": t} for name, t in times.items()
            },
        }

    def test_no_regression_within_threshold(self):
        cmp = compare_reports(self._report({"a": 1.0}),
                              self._report({"a": 1.2}), threshold=0.25)
        assert cmp.ok and not cmp.regressions

    def test_regression_beyond_threshold(self):
        cmp = compare_reports(self._report({"a": 1.0, "b": 1.0}),
                              self._report({"a": 1.5, "b": 0.9}),
                              threshold=0.25)
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["a"]
        assert cmp.regressions[0].ratio == pytest.approx(1.5)

    def test_improvement_is_fine(self):
        cmp = compare_reports(self._report({"a": 2.0}),
                              self._report({"a": 0.5}), threshold=0.0)
        assert cmp.ok

    def test_membership_changes_never_fail(self):
        cmp = compare_reports(self._report({"old_only": 1.0}),
                              self._report({"new_only": 1.0}), threshold=0.1)
        assert cmp.ok
        assert cmp.only_old == ["old_only"]
        assert cmp.only_new == ["new_only"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(self._report({}), self._report({}), threshold=-1)


class TestCLI:
    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "static_region/chunk_touch_counts" in out
        assert "replacement/plan_swaps" in out
        assert "hybrid/policy_plan" in out

    def test_bench_filter_no_match(self, capsys):
        from repro.cli import main

        assert main(["bench", "--filter", "nope-nothing", "--list"]) == 2

    def test_bench_run_write_and_compare(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "baseline.json"
        assert main(["bench", "--quick", "--filter", "frontier/active",
                     "-o", str(out)]) == 0
        assert load_report(str(out))["environment"]["quick"] is True
        # Same revision, same machine: comparing against itself passes.
        assert main(["bench", "--quick", "--filter", "frontier/active",
                     "-o", "-", "--against", str(out)]) == 0
        capsys.readouterr()
