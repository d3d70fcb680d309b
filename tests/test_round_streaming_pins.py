"""Pins for the round-streaming unification: modelled output must not move.

``stream_rounds`` replaces seven hand-written gather → transfer → compute
chains.  Every chain of at most ``ROUND_LOOP_LIMIT`` rounds is a fixed
point — lean, recorded, its folded span timeline, and faulted.  The hashes
below were taken from the parent commit *before* ``manager.py`` /
``hybrid.py`` / ``subway.py`` were touched, for the configurations the
deleted batched gate keyed on (``events.record``, ``faults``) and
``tests/test_chunk_axis_pins.py`` does not cover: GS/BFS and GS/SSSP at
scale 2e-4 with device memory at 0.2 × the dataset (multi-round chains), on
Subway (sequential and pipelined), Ascetic (overlapped and sequential) and
Hybrid.

Two faulted cells are *not* fixed points, by the PR's one named cost-model
change: ``standard_plan()``'s capacity squeeze shrinks the staging buffer to
its floor, and GS/BFS then needs 65+ gather rounds in some iterations on
pipelined Subway (107 / 90 / 83 in iterations 7–9) and on Hybrid (up to 198).
Above ``ROUND_LOOP_LIMIT`` every engine now pays what Ascetic pays — the
aggregate — where Subway looped on and Hybrid collapsed the chain to one
serialised gather / transfer / kernel (``ABOVE_LIMIT_PINS``; hashes taken
after the change).  The Subway cell still reproduces the parent's hash with
the limit lifted, so nothing else moved; Hybrid's parent hash encoded the
collapse and cannot be reproduced.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core.ascetic import AsceticConfig
from repro.gpusim import rounds
from repro.gpusim.faults import standard_plan
from repro.harness.experiments import make_workload, run_workload

from test_chunk_axis_pins import SCALE, event_log_hash, result_hash

ALGOS = ("BFS", "SSSP")
#: name → (registered engine, engine kwargs)
CONFIGS = {
    "Subway": ("Subway", {}),
    "Subway-pipelined": ("Subway", {"pipelined": True}),
    "Ascetic": ("Ascetic", {}),
    "Ascetic-sequential": ("Ascetic", {"config": AsceticConfig(overlap=False)}),
    "Hybrid": ("Hybrid", {}),
}
SPAN_CONFIGS = ("Subway", "Ascetic")


@lru_cache(maxsize=None)
def workload(algo: str):
    graph = make_workload("GS", algo, scale=SCALE).graph
    return make_workload("GS", algo, scale=SCALE,
                         memory_bytes=int(0.2 * graph.dataset_bytes))


def run(algo: str, config: str, **kwargs):
    engine, opts = CONFIGS[config]
    return run_workload(workload(algo), engine, **opts, **kwargs)


def span_hash(algo: str, config: str) -> str:
    """Hash of the span timeline folded from the recorded event log."""
    spans = run(algo, config, record_events=True).event_log.spans()
    blob = repr([(s.lane, s.label, repr(s.start), repr(s.end))
                 for s in spans])
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


CELLS = [(algo, config) for algo in ALGOS for config in CONFIGS]
CELL_IDS = [f"GS/{a}/{c}" for a, c in CELLS]
SPAN_CELLS = [(algo, config) for algo in ALGOS for config in SPAN_CONFIGS]

LEAN_PINS = {
    "GS/BFS/Subway": "52efcbcd7b6e243e",
    "GS/BFS/Subway-pipelined": "38be3e8e3495b772",
    "GS/BFS/Ascetic": "ff6589310d2216cb",
    "GS/BFS/Ascetic-sequential": "f650af0513a99ae6",
    "GS/BFS/Hybrid": "3cb66471581b92cc",
    "GS/SSSP/Subway": "9b9d268f862e4ee2",
    "GS/SSSP/Subway-pipelined": "1a7bb5454bc775ef",
    "GS/SSSP/Ascetic": "b0dabfd22622d147",
    "GS/SSSP/Ascetic-sequential": "1a5980cd5e192b5b",
    "GS/SSSP/Hybrid": "c1685a8976dd7d89",
}

RECORDED_FAULTED_PINS = {
    "GS/BFS/Subway": "601be23f192a52b9",
    "GS/BFS/Subway-pipelined": "7ad8e1ec4382a2dd",
    "GS/BFS/Ascetic": "e47242b0bef65c61",
    "GS/BFS/Ascetic-sequential": "adda3650e1a19ac1",
    "GS/BFS/Hybrid": "b11693b20c3f0465",
    "GS/SSSP/Subway": "23c7b07e5529e223",
    "GS/SSSP/Subway-pipelined": "8a1a87aba9dac67e",
    "GS/SSSP/Ascetic": "3637e431b83d13d1",
    "GS/SSSP/Ascetic-sequential": "35ab4e69ad3dba67",
    "GS/SSSP/Hybrid": "1182d8f660c0523e",
}

#: Cells with a Subway / Hybrid chain above ROUND_LOOP_LIMIT (see module
#: docstring): modelled seconds 1.4923 → 1.4849 and 2.4882 → 1.4784.
ABOVE_LIMIT_PINS = {
    "GS/BFS/Subway-pipelined": "58df61c110385064",
    "GS/BFS/Hybrid": "8848abbcb4bc902e",
}

SPAN_PINS = {
    "GS/BFS/Subway": "2b7a6915e1ae4528",
    "GS/BFS/Ascetic": "c6b5da0faa794e45",
    "GS/SSSP/Subway": "20f932050dd8750e",
    "GS/SSSP/Ascetic": "b8fe07a5b6e4e341",
}


@pytest.mark.parametrize("algo,config", CELLS, ids=CELL_IDS)
def test_lean_result_is_bit_identical_to_parent(algo, config):
    assert result_hash(run(algo, config)) == LEAN_PINS[f"GS/{algo}/{config}"]


@pytest.mark.parametrize("algo,config", CELLS, ids=CELL_IDS)
def test_recorded_faulted_event_log_is_bit_identical_to_parent(algo, config):
    key = f"GS/{algo}/{config}"
    result = run(algo, config, record_events=True,
                 fault_plan=standard_plan(), seed=0)
    assert event_log_hash(result) == ABOVE_LIMIT_PINS.get(
        key, RECORDED_FAULTED_PINS[key])


def test_subway_above_the_limit_differs_from_parent_only_by_the_aggregate(monkeypatch):
    monkeypatch.setattr(rounds, "ROUND_LOOP_LIMIT", 10**9)
    result = run("BFS", "Subway-pipelined", record_events=True,
                 fault_plan=standard_plan(), seed=0)
    assert event_log_hash(result) == RECORDED_FAULTED_PINS["GS/BFS/Subway-pipelined"]


@pytest.mark.parametrize("algo,config", SPAN_CELLS,
                         ids=[f"GS/{a}/{c}" for a, c in SPAN_CELLS])
def test_span_list_is_bit_identical_to_parent(algo, config):
    assert span_hash(algo, config) == SPAN_PINS[f"GS/{algo}/{config}"]
