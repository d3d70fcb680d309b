"""Pins for the branches of Ascetic and Hybrid that no other pin reaches.

Both engines open every superstep with the same frame (GenDataMap scan,
StaticMap / OndemandMap split, on-demand plan) and hand a warm region from
one serving request to the next the same way.  The hashes below were taken
before that shared code moved into one place, and must keep passing
unchanged:

* four Ascetic ablations on two constrained cells: lazy fill, replacement
  off, adaptive repartitioning off, and a forced 0.3 static ratio;
* the run after ``reset_for_request(keep_static=True)``, for Ascetic and
  Hybrid, three ways: on the same device memory; on 0.7 × that memory, so
  ``shrink_to`` drops warm chunks; and on a different graph object, which
  must fall back to a cold run.

Every case runs lean and recorded and is hashed over
``json.dumps(result_to_payload(result))``, unsorted, so the order of the
``extra`` keys is pinned too.
"""

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from repro.core.ascetic import AsceticConfig, AsceticEngine
from repro.engines.hybrid import HybridEngine
from repro.harness.experiments import make_workload
from repro.harness.persistence import result_to_payload

SCALE = 5e-5
#: Device memory as a fraction of the edge array (Fig. 11-left style).
EDGE_FRACTION = 0.15

ABLATIONS = {
    "lazy": AsceticConfig(fill="lazy"),
    "no-replacement": AsceticConfig(replacement=False),
    "no-adaptive": AsceticConfig(adaptive=False),
    "ratio0.3": AsceticConfig(forced_ratio=0.3),
}
ABLATION_CELLS = (("GS", "SSSP"), ("FK", "PR"))
#: engine → (warm cell, the cell whose graph the cold fallback runs on).
WARM_CELLS = {
    "Ascetic": (("GS", "SSSP"), ("FK", "SSSP")),
    "Hybrid": (("FK", "PR"), ("GS", "PR")),
}
WARM_WAYS = ("same-memory", "smaller-memory", "other-graph")
MODES = ("lean", "recorded")


@lru_cache(maxsize=None)
def _workload(dataset: str, algo: str):
    graph = make_workload(dataset, algo, scale=SCALE).graph
    memory = int(graph.edge_array_bytes * EDGE_FRACTION) + graph.vertex_state_bytes * 2
    return make_workload(dataset, algo, scale=SCALE, memory_bytes=max(memory, 4096))


def _engine(name: str, workload, record: bool, config=None):
    kw = dict(spec=workload.spec, data_scale=workload.scale, record_events=record)
    if name == "Ascetic":
        return AsceticEngine(config=config, **kw)
    return HybridEngine(**kw)


def _hash(result) -> str:
    blob = json.dumps(result_to_payload(result))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def ablation_result(ablation: str, dataset: str, algo: str, mode: str):
    workload = _workload(dataset, algo)
    engine = _engine("Ascetic", workload, mode == "recorded", ABLATIONS[ablation])
    return engine.run(workload.graph, workload.fresh_program())


def warm_result(engine_name: str, way: str, mode: str):
    """The second of two runs on one engine, the first left warm."""
    cell, other = WARM_CELLS[engine_name]
    workload = _workload(*cell)
    engine = _engine(engine_name, workload, mode == "recorded")
    engine.run(workload.graph, workload.fresh_program())
    engine.reset_for_request(keep_static=True)
    if way == "smaller-memory":
        engine.spec = dataclasses.replace(
            workload.spec, memory_bytes=int(workload.spec.memory_bytes * 0.7))
    if way == "other-graph":
        workload = _workload(*other)
    return engine.run(workload.graph, workload.fresh_program())


ABLATION_CASES = [(a, d, g, m) for a in ABLATIONS for d, g in ABLATION_CELLS
                  for m in MODES]
WARM_CASES = [(e, w, m) for e in WARM_CELLS for w in WARM_WAYS for m in MODES]

ABLATION_PINS = {
    "GS/SSSP/lazy/lean": "c79abb848a119a3e",
    "GS/SSSP/lazy/recorded": "4e74add72dcc5069",
    "FK/PR/lazy/lean": "d45f619aa099ccec",
    "FK/PR/lazy/recorded": "4ebc6143b0c1cc50",
    "GS/SSSP/no-replacement/lean": "00749926b82082c7",
    "GS/SSSP/no-replacement/recorded": "e8ff8d76ef19f23a",
    "FK/PR/no-replacement/lean": "40c9769dcbe2b145",
    "FK/PR/no-replacement/recorded": "b0ce032738d52aec",
    "GS/SSSP/no-adaptive/lean": "4f1f8520ab68d97f",
    "GS/SSSP/no-adaptive/recorded": "b1b8ef57508741a6",
    "FK/PR/no-adaptive/lean": "e0768fa5b2906d9e",
    "FK/PR/no-adaptive/recorded": "160f4737a34baa41",
    "GS/SSSP/ratio0.3/lean": "1ed363905d14b5c0",
    "GS/SSSP/ratio0.3/recorded": "fe73228b3e65c2f8",
    "FK/PR/ratio0.3/lean": "ae9c59597ba6642e",
    "FK/PR/ratio0.3/recorded": "9f66852a89af5739",
}

WARM_PINS = {
    "Ascetic/same-memory/lean": "cd038c5b1491a086",
    "Ascetic/same-memory/recorded": "76365eb9a08994e0",
    "Ascetic/smaller-memory/lean": "6f3b37675687e728",
    "Ascetic/smaller-memory/recorded": "e641def4b12f625d",
    "Ascetic/other-graph/lean": "dca5f281baa62905",
    "Ascetic/other-graph/recorded": "96a1f6b380034ff5",
    "Hybrid/same-memory/lean": "84d34f6c27a13e7a",
    "Hybrid/same-memory/recorded": "eabd0e1b69f4fd91",
    "Hybrid/smaller-memory/lean": "076b0c8ea205f028",
    "Hybrid/smaller-memory/recorded": "6da8074b6ef7272e",
    "Hybrid/other-graph/lean": "518bcb38d473bef8",
    "Hybrid/other-graph/recorded": "ba0618bb60e5bd3c",
}


@pytest.mark.parametrize("ablation,dataset,algo,mode", ABLATION_CASES,
                         ids=[f"{d}/{g}/{a}/{m}" for a, d, g, m in ABLATION_CASES])
def test_ascetic_ablation_is_bit_identical(ablation, dataset, algo, mode):
    result = ablation_result(ablation, dataset, algo, mode)
    assert _hash(result) == ABLATION_PINS[f"{dataset}/{algo}/{ablation}/{mode}"]


@pytest.mark.parametrize("engine,way,mode", WARM_CASES,
                         ids=[f"{e}/{w}/{m}" for e, w, m in WARM_CASES])
def test_warm_handoff_is_bit_identical(engine, way, mode):
    result = warm_result(engine, way, mode)
    extra = result.extra
    if way == "other-graph":
        assert extra["warm_start"] == 0.0
    else:
        assert extra["warm_start"] == 1.0
        assert (extra["warm_invalidated_chunks"] > 0) == (way == "smaller-memory")
    assert _hash(result) == WARM_PINS[f"{engine}/{way}/{mode}"]
