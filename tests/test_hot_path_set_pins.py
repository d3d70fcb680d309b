"""Pins for removing the hot-path set operations: modelled output must not move.

The UVM pager, the ``step`` of BFS / SSSP / CC / SSWP, the two batched
traversals and ``CSRGraph.chunk_map`` stop calling ``np.unique`` /
``np.union1d``.  It is a host-speed change only, so every modelled number is
a fixed point.  The hashes below were taken from the parent commit *before*
any of those seven files was touched, for what
``tests/test_chunk_axis_pins.py`` and ``tests/test_round_streaming_pins.py``
do not cover (no UVM or PT cell, no CC, no SSWP, no batched traversal):

* the 32 ``paper_grid`` cells of ``bench_e2e`` (FK, GS × BFS, SSSP, CC, PR ×
  PT, UVM, Subway, Ascetic at scale 2e-4 and paper-ratio memory);
* UVM on GS/BFS, GS/SSSP and GS/CC recorded under ``standard_plan()``,
  hashed over the full event log: ``uvm-fault`` markers and the squeeze's
  ``shrink_capacity`` call everywhere; the traversals hold too few pages at
  iteration 1 for the squeeze to evict, so GS/CC (every vertex active from
  the start) is the cell that carries the ``uvm-shrink`` marker;
* one UVM cell under ``GPUSpec(uvm_prefetch_pages=2)`` — the look-ahead is
  unsorted with duplicates, so it goes through the pager's fallback;
* one SSWP cell on Ascetic;
* ``BatchedBFS`` / ``BatchedSSSP`` with four sources on GS at 1e-5, hashing
  the value matrix and ``fronts`` after every superstep.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.gpusim.faults import standard_plan
from repro.harness.experiments import make_workload, run_cell, run_workload
from repro.runner import RunSpec
from repro.serve.batching import make_batched

from event_log_oracles import rows
from test_chunk_axis_pins import SCALE, event_log_hash, result_hash

#: Mirrors ``bench_e2e/workloads.py::build_paper_grid``.
PAPER_DATASETS = ("FK", "GS")
PAPER_ALGOS = ("BFS", "SSSP", "CC", "PR")
PAPER_ENGINES = ("PT", "UVM", "Subway", "Ascetic")
PAPER_CELLS = [(d, a, e) for d in PAPER_DATASETS for a in PAPER_ALGOS
               for e in PAPER_ENGINES]
BATCH_SCALE = 1e-5


def batched_hash(algo: str) -> str:
    """Hash of ``(values, fronts)`` after every superstep of a 4-source run."""
    graph = make_workload("GS", algo, scale=BATCH_SCALE).graph
    sources = np.argsort(graph.out_degree(), kind="stable")[-4:].tolist()
    program = make_batched(algo, sources)
    state = program.init_state(graph)
    digest = hashlib.sha1()
    while state.active.any():
        program.step(graph, state)
        digest.update(state.values_2d.tobytes())
        digest.update(state.fronts.tobytes())
    digest.update(repr((state.iteration, state.edges_relaxed)).encode())
    return digest.hexdigest()[:16]


PAPER_PINS = {
    "FK/BFS/PT": "588dc64e96326a28",
    "FK/BFS/UVM": "f3eddf5f6194480f",
    "FK/BFS/Subway": "580f55de88e5c2c3",
    "FK/BFS/Ascetic": "aa52df2004c9da48",
    "FK/SSSP/PT": "acd8798084f1f9a6",
    "FK/SSSP/UVM": "8e68bc0ce9d22726",
    "FK/SSSP/Subway": "26c2fb5bfc8c5497",
    "FK/SSSP/Ascetic": "fb614ec924b7c40c",
    "FK/CC/PT": "e94e372c7a380080",
    "FK/CC/UVM": "6b307d9c558fa84a",
    "FK/CC/Subway": "8a7746e53b5b3a39",
    "FK/CC/Ascetic": "b9b55fee0f712643",
    "FK/PR/PT": "28c3be60fee9747b",
    "FK/PR/UVM": "4d4a3fd938807481",
    "FK/PR/Subway": "e68533a99f34bedf",
    "FK/PR/Ascetic": "14270d75f840b8b7",
    "GS/BFS/PT": "5841fce6904493c4",
    "GS/BFS/UVM": "fc052af260665a85",
    "GS/BFS/Subway": "2403a4fb53712e4d",
    "GS/BFS/Ascetic": "92bfac3e6ae0aa50",
    "GS/SSSP/PT": "bb084ad0afb40857",
    "GS/SSSP/UVM": "f5b8624ff810a6e8",
    "GS/SSSP/Subway": "c1d9db1f46097d2a",
    "GS/SSSP/Ascetic": "f75334899ff09136",
    "GS/CC/PT": "373bc75bc767d994",
    "GS/CC/UVM": "aee74c1ccffc641b",
    "GS/CC/Subway": "9190f6f3210c29ac",
    "GS/CC/Ascetic": "bb6ef2e0e0394c51",
    "GS/PR/PT": "222876f2379c039c",
    "GS/PR/UVM": "9770845addedaa0e",
    "GS/PR/Subway": "3eccb77cfcaf24f2",
    "GS/PR/Ascetic": "6872c5822e793e06",
}

UVM_EVENT_LOG_PINS = {
    "GS/BFS/UVM": "e974c698616e2cc1",
    "GS/SSSP/UVM": "e21e2733a78a931b",
    "GS/CC/UVM": "5f5c3264619f1a9a",
}

UVM_PREFETCH_PIN = "68421cbf5076cb80"
SSWP_ASCETIC_PIN = "5e65162e8da1ab51"

BATCHED_PINS = {
    "BFS": "e7013bc2a5e76f3a",
    "SSSP": "aa62b5ea82bfbe0e",
}


@pytest.mark.parametrize("dataset,algo,engine", PAPER_CELLS,
                         ids=["/".join(c) for c in PAPER_CELLS])
def test_paper_grid_cell_is_bit_identical_to_parent(dataset, algo, engine):
    result = run_cell(RunSpec(dataset, algo, engine, scale=SCALE))
    assert result_hash(result) == PAPER_PINS[f"{dataset}/{algo}/{engine}"]


@pytest.mark.parametrize("algo", ("BFS", "SSSP", "CC"))
def test_recorded_uvm_event_log_is_bit_identical_to_parent(algo):
    result = run_workload(make_workload("GS", algo, scale=SCALE), "UVM",
                          record_events=True, fault_plan=standard_plan(), seed=0)
    kinds = {e.kind for e in rows(result.event_log.events)}
    assert {"uvm-fault", "squeeze"} <= kinds
    assert ("uvm-shrink" in kinds) == (algo == "CC")
    assert event_log_hash(result) == UVM_EVENT_LOG_PINS[f"GS/{algo}/UVM"]


def test_uvm_prefetch_lookahead_is_bit_identical_to_parent():
    workload = make_workload("GS", "SSSP", scale=SCALE)
    workload = replace(workload, spec=replace(workload.spec, uvm_prefetch_pages=2))
    result = run_workload(workload, "UVM", record_events=True)
    assert any(e.kind == "uvm-prefetch" for e in rows(result.event_log.events))
    assert result_hash(result) == UVM_PREFETCH_PIN


def test_sswp_on_ascetic_is_bit_identical_to_parent():
    result = run_cell(RunSpec("GS", "SSWP", "Ascetic", scale=SCALE))
    assert result_hash(result) == SSWP_ASCETIC_PIN


@pytest.mark.parametrize("algo", ("BFS", "SSSP"))
def test_batched_traversal_supersteps_are_bit_identical_to_parent(algo):
    assert batched_hash(algo) == BATCHED_PINS[algo]
