"""Tests of the benchmark itself (run explicitly: ``pytest bench_e2e/tests``;
the repository's tier-1 ``testpaths`` does not include them).

They check the instrument, not the program: the declarations against the
driver's contract, the span arithmetic, and one ``--smoke`` run of every
workload through the same code path the full run takes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
for _path in (REPO / "src", REPO):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench_e2e import cli, metrics  # noqa: E402
from bench_e2e.trace import Target, Tracer  # noqa: E402
from bench_e2e.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=REPO, timeout=300):
    # No inherited PYTHONPATH: the entry point must find ``src/`` itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "-m", "bench_e2e", *args], cwd=cwd,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


# ------------------------------------------------------------- declarations
def test_metric_declarations_meet_the_contract():
    end_to_end = metrics.HOST + metrics.MODEL
    assert len(end_to_end) <= 16
    assert len(metrics.PER_LAYER) + len(metrics.MODEL) <= 128
    names = [m.name for m in end_to_end + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for m in end_to_end + metrics.PER_LAYER:
        assert NAME.fullmatch(m.name), m.name
        assert UNIT.fullmatch(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in end_to_end)
    setup = metrics.HOST[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in end_to_end)


def test_benchmark_json_is_the_declared_contract():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == cli.contract(), (
        "BENCHMARK.json is out of step with bench_e2e/metrics.py and "
        "workloads.py; regenerate it with: python3 -c \"import json; "
        "from bench_e2e import cli; json.dump(cli.contract(), "
        "open('BENCHMARK.json', 'w'), indent=2)\"")
    assert list(on_disk) == ["command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"]
    assert 2 <= len(on_disk["workloads"]) <= 8
    for w in on_disk["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_list_prints_without_running():
    proc = bench("--list", timeout=60)
    assert proc.returncode == 0
    for name in WORKLOADS:
        assert f"workload {name}:" in proc.stdout
    for m in metrics.HOST + metrics.MODEL + metrics.PER_LAYER:
        assert re.search(rf"^\S+ {re.escape(m.name)} \[", proc.stdout, re.M), m.name


# -------------------------------------------------------------- span shim
@pytest.fixture
def toy_modules():
    """Two throw-away modules under a rebindable prefix: ``b`` holds a
    ``from a import work`` style binding of ``a.work``."""
    a = types.ModuleType("bench_e2e._toy_a")
    b = types.ModuleType("bench_e2e._toy_b")

    def leaf(n):
        return sum(range(n))

    def work(n):
        return a.leaf(n) + a.leaf(n)

    class Box:
        def get(self, n):
            return a.work(n)

    a.leaf, a.work, a.Box = leaf, work, Box
    b.work = work
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    yield a, b
    del sys.modules[a.__name__], sys.modules[b.__name__]


def test_tracer_rebinds_every_namespace_and_restores(toy_modules):
    a, b = toy_modules
    original_work, original_get = a.work, a.Box.__dict__["get"]
    tracer = Tracer()
    tracer.install([Target("toy.work", a, "work"), Target("toy.leaf", a, "leaf"),
                    Target("toy.get", a.Box, "get")])
    assert b.work is a.work and a.work is not original_work
    with tracer.span("op:x", op=0):
        assert b.work(10) == 90          # the from-import binding is traced
        assert a.Box().get(10) == 90
    tracer.uninstall()
    assert a.work is original_work and b.work is original_work
    assert a.Box.__dict__["get"] is original_get

    table = tracer.table()
    calls = table.calls_by_name()
    assert calls == {"toy.work": 2, "toy.leaf": 4, "toy.get": 1, "op:x": 1}
    assert set(table.op.tolist()) == {0}


def test_self_times_sum_to_the_root(toy_modules):
    a, _ = toy_modules
    tracer = Tracer()
    tracer.install([Target("toy.work", a, "work"), Target("toy.leaf", a, "leaf")])
    try:
        for op in range(3):
            with tracer.span(f"op:{op}", op=op):
                a.work(20_000)
    finally:
        tracer.uninstall()
    table = tracer.table()
    root = table.duration[table.parent < 0].sum()
    assert table.self_seconds.min() >= -1e-9
    assert table.self_seconds.sum() == pytest.approx(root, rel=1e-9)
    by_op = table.self_by_op()
    assert sorted(by_op) == [0, 1, 2]
    assert sum(sum(v.values()) for v in by_op.values()) == pytest.approx(root)
    assert table.outermost_total("toy.", "work")["toy.work"] == pytest.approx(
        table.total_by_name()["toy.work"])


def test_probe_counts_at_the_boundary(toy_modules):
    a, _ = toy_modules

    def probe(counters, args, kwargs, result):
        counters["toy.sum"] += result

    tracer = Tracer()
    tracer.install([Target("toy.leaf", a, "leaf", probe=probe)])
    try:
        a.work(4)
    finally:
        tracer.uninstall()
    assert tracer.counters["toy.sum"] == 12


# ------------------------------------------------------------- smoke suite
@pytest.fixture(scope="module")
def smoke_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = bench("--smoke", "--seed", "3", "-o", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), proc.stdout


def test_smoke_reports_every_metric_once_per_workload(smoke_suite):
    suite, stdout = smoke_suite
    assert list(suite["workloads"]) == list(WORKLOADS)
    for name, doc in suite["workloads"].items():
        assert doc["failed"] == 0 and doc["correct"], doc["failures"]
        assert doc["attempted"] >= 3 * doc["info"]["n_ops"]
        assert set(doc["host"]) == {m.name for m in metrics.HOST}
        assert all(v > 0 for v in doc["host"].values())
        assert set(doc["model"]) == {m.name for m in metrics.MODEL}
        assert set(doc["layers"]) == {m.name for m in metrics.PER_LAYER}
        # Span self times explain the op spans they were measured under.
        assert doc["trace"]["self_sum_s"] == pytest.approx(
            doc["trace"]["root_s"], rel=0.01)
        assert set(doc["trace"]["self_by_op"]) == set(doc["info"]["op_ms"])
    # Printed once per workload, by name, with the unit.
    for m in metrics.HOST + metrics.MODEL + metrics.PER_LAYER:
        lines = re.findall(rf"^  {re.escape(m.name)} +\S+ +{re.escape(m.unit)}(?=\s|$)",
                           stdout, re.M)
        assert len(lines) == len(WORKLOADS), (m.name, len(lines))
    assert stdout.count("ops_failed_frac") == len(WORKLOADS)


def test_smoke_model_metrics_are_where_they_belong(smoke_suite):
    suite, _ = smoke_suite
    docs = suite["workloads"]
    serve_only = ("model_p95_e2e_s", "model_slo_attainment", "model_max_rate_ok")
    for name in ("paper_grid", "oom_pressure", "recorded_chaos"):
        assert docs[name]["model"]["model_speedup_vs_subway"] > 0
        assert all(docs[name]["model"][m] is None for m in serve_only)
    assert docs["paper_grid"]["model"]["model_err_vs_paper_pct"] is not None
    assert docs["oom_pressure"]["model"]["model_err_vs_paper_pct"] is None
    assert docs["serve_fleet"]["model"]["model_speedup_vs_subway"] is None
    assert all(docs["serve_fleet"]["model"][m] is not None for m in serve_only)
    layers = docs["serve_fleet"]["layers"]
    assert layers["serve.scheduler_calls"] > 0 and layers["serve.events"] > 0
    # The measurements outside the op list run in smoke mode too.
    assert all(doc["layers"]["cli.run_cold_s"] > 0 for doc in docs.values())
    assert docs["paper_grid"]["layers"]["runner.cache_hit_ratio"] == 1
    assert docs["paper_grid"]["layers"]["runner.cache_write_s"] > 0
    assert docs["oom_pressure"]["layers"]["runner.cache_write_s"] == 0
    assert docs["recorded_chaos"]["layers"]["gpusim.events_recorded"] > 0
    assert docs["recorded_chaos"]["layers"]["engines.Sharded.reshards"] >= 1


def test_a_side_measurement_that_raises_is_one_failed_op():
    from bench_e2e.run import _Failures

    failures = _Failures()
    assert failures.count_side("ok", lambda: 2.5, 0.0) == 2.5

    def broken():
        raise subprocess.TimeoutExpired("repro run", 60)

    assert failures.count_side("cli.run_cold", broken, 0.0) == 0.0
    assert (failures.attempted, failures.failed) == (2, 1)
    assert "TimeoutExpired" in failures.reasons["cli.run_cold"]


# ------------------------------------------------------------------ --agree
def _stub_doc(workload, host_s):
    host = {m.name: 1.0 for m in metrics.HOST} | {"host_s": host_s}
    model = {m.name: None for m in metrics.MODEL} | {"model_ascetic_s": 12.5}
    return {"workload": workload, "failed": 0, "attempted": 4, "host": host,
            "model": model, "info": {"wall_over_cpu": [1.0, 1.0]},
            "env": {"loadavg_1m": 0.1, "calib_s": 0.008}}


@pytest.mark.parametrize("second_host_s, verdict, code",
                         [(1.05, "PASS", 0), (1.5, "FAIL", 1)])
def test_agree_judges_two_suites_by_each_bound(monkeypatch, capsys,
                                               second_host_s, verdict, code):
    calls = []

    def child(workload, seed, seconds, trace, smoke):
        calls.append((workload, trace))
        second = len(calls) > len(WORKLOADS)
        return _stub_doc(workload, second_host_s if second else 1.0)

    monkeypatch.setattr(cli, "_child", child)
    assert cli.agree(seed=0, seconds=1, smoke=False) == code
    # Both suites ran every workload once, untraced.
    assert calls == [(w, 0) for w in WORKLOADS] * 2
    out = capsys.readouterr().out
    assert out.rstrip().endswith(f"agree: {verdict}")
    for workload in WORKLOADS:
        assert re.search(rf"^{workload} +host_s .* {verdict}$", out, re.M)
        # Modelled metrics are held to identical; n/a ones are not listed.
        assert re.search(rf"^{workload} +model_ascetic_s .* exact PASS$", out, re.M)
        assert not re.search(rf"^{workload} +model_max_rate_ok", out, re.M)


def test_agree_smoke_runs_end_to_end():
    proc = bench("--agree", "--smoke", "--seed", "2")
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    # Host times of a smoke run may miss their bound on a busy machine; the
    # exit code must follow the verdict either way.
    assert last == ("agree: PASS" if proc.returncode == 0 else "agree: FAIL")
    for workload in WORKLOADS:
        for m in metrics.HOST:
            assert re.search(rf"^{workload} +{m.name} .*(PASS|FAIL)$",
                             proc.stdout, re.M), (workload, m.name)
        assert re.search(rf"^{workload} +ops_failed +0 +0 .* exact PASS$",
                         proc.stdout, re.M)
    assert proc.stdout.count("calib_s") == 2


# ---------------------------------------------------------- driver protocol
@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_protocol_last_line(trace):
    proc = bench("--workload", "recorded_chaos", "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = cli.contract()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "paper_grid", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
