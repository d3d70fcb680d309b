"""Pins for the chunk-axis rewrite: modelled output must not move.

The segment (run-length) chunk axis replaces dense chunk-length arrays in
the Static Region's touch counting, the §3.4 hotness table, Hybrid's
per-chunk policy and the Manager.  It is a host-speed change only, so every
modelled number is a fixed point.  The hashes below were taken from the
parent commit (dense implementation) *before* any of those modules was
touched and must keep passing unchanged:

* the 35 ``oom_pressure`` cells of ``bench_e2e`` (scale 2e-4, memory at
  0.2/0.6 × the dataset, Subway / Ascetic / Hybrid / Sharded(4 × Ascetic)),
  hashed over ``elapsed_seconds``, the value array, every ``Metrics`` field
  and every ``extra``;
* ten more Sharded cells off that grid — one and three devices, Hybrid as
  the inner engine, and runs cut short by ``max_iterations=3`` — taken
  before ``ShardedEngine`` moved onto ``Engine.run``;
* Ascetic and Hybrid on GS/BFS and GS/SSSP, recorded under
  ``standard_plan()``, hashed over the full event log (per-run
  ``access-path`` markers included).
"""

import hashlib
import json

import pytest

from repro.gpusim.faults import standard_plan
from repro.harness.experiments import make_workload, run_cell, run_workload
from repro.runner import RunSpec

SCALE = 2e-4
OOM_ENGINES = ("Subway", "Ascetic", "Hybrid", "Sharded")
#: Mirrors ``bench_e2e/workloads.py::OOM_CELLS``.
OOM_CELLS = (
    ("FK", "BFS", (0.2, 0.6), OOM_ENGINES),
    ("FK", "SSSP", (0.2, 0.6), OOM_ENGINES),
    ("GS", "BFS", (0.2, 0.6), OOM_ENGINES),
    ("GS", "SSSP", (0.2, 0.6), OOM_ENGINES),
    ("FK", "PR", (0.2,), ("Subway", "Ascetic", "Hybrid")),
)
SHARDED_OPTS = {"devices": 4, "inner": "Ascetic"}
#: ``(dataset, algo, memory ratio, devices, inner, max_iterations)``.
SHARDED_VARIANTS = (
    ("FK", "BFS", 0.2, 1, "Ascetic", None),
    ("FK", "BFS", 0.2, 3, "Ascetic", None),
    ("FK", "BFS", 0.2, 3, "Hybrid", None),
    ("FK", "BFS", 0.2, 4, "Hybrid", 3),
    ("FK", "BFS", 0.6, 1, "Hybrid", None),
    ("GS", "SSSP", 0.6, 3, "Ascetic", None),
    ("GS", "SSSP", 0.6, 4, "Hybrid", None),
    ("GS", "SSSP", 0.2, 3, "Hybrid", 3),
    ("GS", "SSSP", 0.2, 1, "Ascetic", 3),
    ("GS", "BFS", 0.6, 3, "Hybrid", None),
)
RECORDED_CELLS = tuple(
    (algo, engine) for algo in ("BFS", "SSSP") for engine in ("Ascetic", "Hybrid")
)


def oom_specs():
    """``(name, RunSpec)`` for the 35 cells, built as ``build_oom_pressure`` does."""
    out = []
    for dataset, algo, ratios, engines in OOM_CELLS:
        graph = make_workload(dataset, algo, scale=SCALE).graph
        for ratio in ratios:
            memory = int(ratio * graph.dataset_bytes)
            for engine in engines:
                spec = RunSpec(dataset, algo, engine, scale=SCALE,
                               memory_bytes=memory,
                               engine_opts=SHARDED_OPTS if engine == "Sharded" else {})
                out.append((f"{dataset}/{algo}/m{ratio:g}/{engine}", spec))
    return out


def sharded_variant_specs():
    """``(name, RunSpec)`` for the Sharded cells off the ``oom_pressure`` grid."""
    out = []
    for dataset, algo, ratio, devices, inner, cap in SHARDED_VARIANTS:
        graph = make_workload(dataset, algo, scale=SCALE).graph
        opts = {"devices": devices, "inner": inner}
        if cap is not None:
            opts["max_iterations"] = cap
        spec = RunSpec(dataset, algo, "Sharded", scale=SCALE,
                       memory_bytes=int(ratio * graph.dataset_bytes),
                       engine_opts=opts)
        name = f"{dataset}/{algo}/m{ratio:g}/{devices}x{inner}"
        out.append((name + (f"/cap{cap}" if cap is not None else ""), spec))
    return out


def result_hash(result) -> str:
    values = hashlib.sha1(result.values.tobytes()).hexdigest()
    blob = repr((repr(result.elapsed_seconds), values,
                 sorted(result.metrics.as_dict().items()),
                 sorted(result.extra.items())))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def event_log_hash(result) -> str:
    blob = json.dumps([e.to_dict() for e in result.event_log.events])
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def recorded_result(algo: str, engine: str):
    workload = make_workload("GS", algo, scale=SCALE)
    return run_workload(workload, engine, record_events=True,
                        fault_plan=standard_plan(), seed=0)


OOM_PINS = {
    "FK/BFS/m0.2/Subway": "30c45002a4359de0",
    "FK/BFS/m0.2/Ascetic": "b844eab093bc9fa0",
    "FK/BFS/m0.2/Hybrid": "eaaf52a30c4b7d09",
    "FK/BFS/m0.2/Sharded": "38501a8e6f2b25f9",
    "FK/BFS/m0.6/Subway": "1ef5b082def6e6da",
    "FK/BFS/m0.6/Ascetic": "53a973914f4080f2",
    "FK/BFS/m0.6/Hybrid": "abc71e466c5172c0",
    "FK/BFS/m0.6/Sharded": "0ffa16bb2228255e",
    "FK/SSSP/m0.2/Subway": "3f74651193bfe589",
    "FK/SSSP/m0.2/Ascetic": "d8af62c06b4da0b5",
    "FK/SSSP/m0.2/Hybrid": "6c3d171c3f4e154a",
    "FK/SSSP/m0.2/Sharded": "975b360729181555",
    "FK/SSSP/m0.6/Subway": "440b2e7c1b3e7222",
    "FK/SSSP/m0.6/Ascetic": "48c8b6ce73e0cd79",
    "FK/SSSP/m0.6/Hybrid": "30f2a16c4935d5bf",
    "FK/SSSP/m0.6/Sharded": "11f9d95ba6131c0e",
    "GS/BFS/m0.2/Subway": "52efcbcd7b6e243e",
    "GS/BFS/m0.2/Ascetic": "ff6589310d2216cb",
    "GS/BFS/m0.2/Hybrid": "3cb66471581b92cc",
    "GS/BFS/m0.2/Sharded": "150f58f00d2f5ca3",
    "GS/BFS/m0.6/Subway": "51d5c1448a2a09a4",
    "GS/BFS/m0.6/Ascetic": "2df236ac3b1e9ba6",
    "GS/BFS/m0.6/Hybrid": "294393ecce3b3402",
    "GS/BFS/m0.6/Sharded": "ed27fcf27da06aa3",
    "GS/SSSP/m0.2/Subway": "9b9d268f862e4ee2",
    "GS/SSSP/m0.2/Ascetic": "b0dabfd22622d147",
    "GS/SSSP/m0.2/Hybrid": "c1685a8976dd7d89",
    "GS/SSSP/m0.2/Sharded": "0e28ec223bbcc893",
    "GS/SSSP/m0.6/Subway": "d7eed61c0ac4d4ad",
    "GS/SSSP/m0.6/Ascetic": "7b6a0178969ba0a9",
    "GS/SSSP/m0.6/Hybrid": "2b1ee458d5b71403",
    "GS/SSSP/m0.6/Sharded": "24bf827784ea287d",
    "FK/PR/m0.2/Subway": "27f4f4a21e60a1e0",
    "FK/PR/m0.2/Ascetic": "5206bfaec1322737",
    "FK/PR/m0.2/Hybrid": "7aac447e7d7f8c01",
}

SHARDED_VARIANT_PINS = {
    "FK/BFS/m0.2/1xAscetic": "5bbbffaa19766534",
    "FK/BFS/m0.2/3xAscetic": "e7a6da3a27917796",
    "FK/BFS/m0.2/3xHybrid": "d380046d218786bc",
    "FK/BFS/m0.2/4xHybrid/cap3": "59038c9bce9f19af",
    "FK/BFS/m0.6/1xHybrid": "1d6835f64284fed4",
    "GS/SSSP/m0.6/3xAscetic": "d0aa20e731de00e9",
    "GS/SSSP/m0.6/4xHybrid": "08c39f006ceaa33e",
    "GS/SSSP/m0.2/3xHybrid/cap3": "3d658c6203792ed9",
    "GS/SSSP/m0.2/1xAscetic/cap3": "501ea1c505d604e8",
    "GS/BFS/m0.6/3xHybrid": "d8473c4a03b9ddcd",
}

EVENT_LOG_PINS = {
    "GS/BFS/Ascetic": "4a1ca3517329329a",
    "GS/BFS/Hybrid": "3ae5028a68136be6",
    "GS/SSSP/Ascetic": "436452f48c0f3736",
    "GS/SSSP/Hybrid": "71beabd8400e213a",
}


@pytest.mark.parametrize("name,spec", oom_specs(), ids=[n for n, _ in oom_specs()])
def test_oom_pressure_cell_is_bit_identical_to_parent(name, spec):
    assert result_hash(run_cell(spec)) == OOM_PINS[name]


@pytest.mark.parametrize("name,spec", sharded_variant_specs(),
                         ids=[n for n, _ in sharded_variant_specs()])
def test_sharded_variant_is_bit_identical_to_parent(name, spec):
    result = run_cell(spec)
    if "/cap" in name:
        assert result.iterations == len(result.per_iteration) == 3
    assert result_hash(result) == SHARDED_VARIANT_PINS[name]


@pytest.mark.parametrize("algo,engine", RECORDED_CELLS,
                         ids=[f"GS/{a}/{e}" for a, e in RECORDED_CELLS])
def test_recorded_event_log_is_bit_identical_to_parent(algo, engine):
    result = recorded_result(algo, engine)
    assert event_log_hash(result) == EVENT_LOG_PINS[f"GS/{algo}/{engine}"]
