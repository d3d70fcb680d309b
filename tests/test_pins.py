"""Bit-identity pins: every modelled number of a distinct run is a fixed point.

One row per distinct run, each hashed once over the bytes the result cache
writes (``json.dumps(result_to_payload(result))``, unsorted): the value
array, every ``Metrics`` field and ``extra`` key in order, the
per-iteration records and, for a recorded run, every event row.  A hash
moves only with a named cost-model change.  The runs:

* ``paper_grid`` — ``bench_e2e``'s 32 cells (FK, GS × BFS, SSSP, CC, PR ×
  PT, UVM, Subway, Ascetic at scale 2e-4 and paper-ratio memory), plus
  SSWP on Ascetic;
* ``oom_pressure`` — its 35 cells (device memory at 0.2 / 0.6 × the
  dataset; Subway, Ascetic, Hybrid, Sharded(4 × Ascetic)), ten Sharded
  cells off that grid (one and three devices, Hybrid inside, runs cut short
  by ``max_iterations=3``), and at 0.2 × GS the round-streaming variants:
  pipelined Subway, sequential Ascetic, each chain recorded with and
  without ``standard_plan()``;
* ``recorded_chaos`` — its 19 ops (recorded under ``standard_plan()``,
  Sharded under ``standard_fleet_plan()`` mid-horizon), plus UVM on GS/CC
  (the cell whose squeeze evicts: ``uvm-shrink``); and UVM recorded with a
  two-page prefetch look-ahead (the pager's unsorted path).  Each op also pins the bytes ``repro trace`` writes
  (``chrome``) and the gpu lane's ``idle_breakdown`` (``idle``), and checks
  live that ``validate_log`` re-folds the reported ``Metrics`` and that the
  payload round-trips;
* Ascetic's ablations (lazy fill, replacement off, adaptive off, a forced
  0.3 ratio) and Ascetic's and Hybrid's warm handoff (same memory, 0.7 ×
  it, another graph), lean and recorded, at scale 5e-5 on memory for 15 %
  of the edge array.
"""

import hashlib
import json
from dataclasses import replace
from functools import partial

import pytest

from repro.analysis.traces import to_chrome_trace
from repro.engines import registry
from repro.gpusim import rounds
from repro.gpusim.events import COUNTER_FIELDS, idle_breakdown, validate_log
from repro.gpusim.faults import standard_fleet_plan, standard_plan
from repro.harness.experiments import make_workload, run_workload
from repro.harness.persistence import result_from_payload, result_to_payload

SCALE = 2e-4
SHARDED_OPTS = {"devices": 4, "inner": "Ascetic"}
FAULTED = {"record_events": True, "fault_plan": standard_plan(), "seed": 0}
#: The round-streaming configurations: name → (engine, options).
ROUND_CONFIGS = {
    "Subway": ("Subway", {}),
    "Subway-pipelined": ("Subway", {"pipelined": True}),
    "Ascetic": ("Ascetic", {}),
    "Ascetic-sequential": ("Ascetic", {"overlap": False}),
    "Hybrid": ("Hybrid", {}),
}


def sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def workload(dataset: str, algo: str, ratio=None, scale=SCALE):
    """The cell's workload; ``ratio`` sets device memory to that fraction
    of the dataset's bytes."""
    built = make_workload(dataset, algo, scale=scale)
    if ratio is None:
        return built
    return make_workload(dataset, algo, scale=scale,
                         memory_bytes=int(ratio * built.graph.dataset_bytes))


def cell(dataset, algo, engine, ratio=None, **opts):
    return run_workload(workload(dataset, algo, ratio), engine, **opts)


def chaos(dataset, algo, engine):
    """One ``recorded_chaos`` op, built as ``build_recorded_chaos`` does."""
    if engine != "Sharded":
        return cell(dataset, algo, engine, **FAULTED)
    horizon = cell(dataset, algo, "Sharded", **SHARDED_OPTS).elapsed_seconds
    plan = standard_fleet_plan(
        0, SHARDED_OPTS["devices"], down_at=horizon / 2,
        degrade_start=horizon * 0.6, degrade_end=horizon * 0.8)
    return cell(dataset, algo, "Sharded", record_events=True, fault_plan=plan,
                seed=0, **SHARDED_OPTS)


def prefetching_uvm():
    built = workload("GS", "SSSP")
    built = replace(built, spec=replace(built.spec, uvm_prefetch_pages=2))
    return run_workload(built, "UVM", record_events=True)


def constrained(dataset: str, algo: str):
    """Scale 5e-5, memory for 15 % of the edge array beside vertex state."""
    graph = make_workload(dataset, algo, scale=5e-5).graph
    memory = int(graph.edge_array_bytes * 0.15) + graph.vertex_state_bytes * 2
    return make_workload(dataset, algo, scale=5e-5, memory_bytes=max(memory, 4096))


def ablation(dataset, algo, record, **switches):
    return run_workload(constrained(dataset, algo), "Ascetic",
                        record_events=record, **switches)


#: engine → (warm cell, the cell whose graph the cold fallback runs on).
WARM_CELLS = {"Ascetic": (("GS", "SSSP"), ("FK", "SSSP")),
              "Hybrid": (("FK", "PR"), ("GS", "PR"))}


def warm(engine_name: str, way: str, record: bool):
    """The second of two runs on one engine, the first left warm."""
    cell_, other = WARM_CELLS[engine_name]
    built = constrained(*cell_)
    engine = registry.create(engine_name, spec=built.spec,
                             data_scale=built.scale, record_events=record)
    engine.run(built.graph, built.fresh_program())
    engine.reset_for_request()
    if way == "smaller-memory":
        engine.spec = replace(built.spec,
                              memory_bytes=int(built.spec.memory_bytes * 0.7))
    if way == "other-graph":
        built = constrained(*other)
    return engine.run(built.graph, built.fresh_program())


RUNS = {}
for d in ("FK", "GS"):
    for a in ("BFS", "SSSP", "CC", "PR"):
        for e in ("PT", "UVM", "Subway", "Ascetic"):
            RUNS[f"{d}/{a}/{e}"] = partial(cell, d, a, e)
RUNS["GS/SSWP/Ascetic"] = partial(cell, "GS", "SSWP", "Ascetic")
for d, a, ratios, engines in (
        ("FK", "BFS", (0.2, 0.6), ("Subway", "Ascetic", "Hybrid", "Sharded")),
        ("FK", "SSSP", (0.2, 0.6), ("Subway", "Ascetic", "Hybrid", "Sharded")),
        ("GS", "BFS", (0.2, 0.6), ("Subway", "Ascetic", "Hybrid", "Sharded")),
        ("GS", "SSSP", (0.2, 0.6), ("Subway", "Ascetic", "Hybrid", "Sharded")),
        ("FK", "PR", (0.2,), ("Subway", "Ascetic", "Hybrid"))):
    for r in ratios:
        for e in engines:
            RUNS[f"{d}/{a}/m{r:g}/{e}"] = partial(
                cell, d, a, e, r, **(SHARDED_OPTS if e == "Sharded" else {}))
for d, a, r, n, inner, cap in (
        ("FK", "BFS", 0.2, 1, "Ascetic", None),
        ("FK", "BFS", 0.2, 3, "Ascetic", None),
        ("FK", "BFS", 0.2, 3, "Hybrid", None),
        ("FK", "BFS", 0.2, 4, "Hybrid", 3),
        ("FK", "BFS", 0.6, 1, "Hybrid", None),
        ("GS", "SSSP", 0.6, 3, "Ascetic", None),
        ("GS", "SSSP", 0.6, 4, "Hybrid", None),
        ("GS", "SSSP", 0.2, 3, "Hybrid", 3),
        ("GS", "SSSP", 0.2, 1, "Ascetic", 3),
        ("GS", "BFS", 0.6, 3, "Hybrid", None)):
    opts = {"devices": n, "inner": inner}
    if cap is not None:
        opts["max_iterations"] = cap
    RUNS[f"{d}/{a}/m{r:g}/{n}x{inner}" + (f"/cap{cap}" if cap else "")] = \
        partial(cell, d, a, "Sharded", r, **opts)
for a in ("BFS", "SSSP"):
    for config, (e, opts) in ROUND_CONFIGS.items():
        if config not in ("Subway", "Ascetic", "Hybrid"):
            RUNS[f"GS/{a}/m0.2/{config}"] = partial(cell, "GS", a, e, 0.2, **opts)
        RUNS[f"GS/{a}/m0.2/{config}/faulted"] = partial(
            cell, "GS", a, e, 0.2, **opts, **FAULTED)
        if config in ("Subway", "Ascetic"):
            RUNS[f"GS/{a}/m0.2/{config}/recorded"] = partial(
                cell, "GS", a, e, 0.2, **opts, record_events=True)
CHAOS_OPS = (
    [("FK", "BFS", e) for e in ("PT", "UVM", "Subway", "Ascetic", "Hybrid")]
    + [("GS", "BFS", e) for e in ("PT", "UVM", "Subway", "Ascetic", "Hybrid")]
    + [("GS", "SSSP", e) for e in ("PT", "UVM", "Subway", "Ascetic", "Hybrid")]
    + [("GS", "PR", "Subway"), ("GS", "PR", "Ascetic"),
       ("FK", "BFS", "Sharded"), ("GS", "BFS", "Sharded")])
for d, a, e in CHAOS_OPS:
    RUNS[f"{d}/{a}/chaos/{e}"] = partial(chaos, d, a, e)
RUNS["GS/CC/chaos/UVM"] = partial(chaos, "GS", "CC", "UVM")
RUNS["GS/SSSP/UVM-prefetch2"] = prefetching_uvm
for name, switches in (("lazy", {"fill": "lazy"}),
                       ("no-replacement", {"replacement": False}),
                       ("no-adaptive", {"adaptive": False}),
                       ("ratio0.3", {"forced_ratio": 0.3})):
    for d, a in (("GS", "SSSP"), ("FK", "PR")):
        for mode in ("lean", "recorded"):
            RUNS[f"{d}/{a}/{name}/{mode}"] = partial(
                ablation, d, a, mode == "recorded", **switches)
for e in WARM_CELLS:
    for way in ("same-memory", "smaller-memory", "other-graph"):
        for mode in ("lean", "recorded"):
            RUNS[f"{e}/{way}/{mode}"] = partial(warm, e, way, mode == "recorded")

PINS = {
    "FK/BFS/PT": "8dcc5e0d82bbd7e6",
    "FK/BFS/UVM": "faae3ac50798a09d",
    "FK/BFS/Subway": "cd91bc3ee37a863d",
    "FK/BFS/Ascetic": "1f7af0f93152d5ec",
    "FK/SSSP/PT": "7416aa40aae54131",
    "FK/SSSP/UVM": "a804d4324ae5cdc9",
    "FK/SSSP/Subway": "fabd682ba730f722",
    "FK/SSSP/Ascetic": "b6f71c838cef1cb9",
    "FK/CC/PT": "464e782d8354f54a",
    "FK/CC/UVM": "1a368bb3567d5d4e",
    "FK/CC/Subway": "eea3ca86be7e8cb2",
    "FK/CC/Ascetic": "46fe5cf5356cb68e",
    "FK/PR/PT": "2ce43b583382a261",
    "FK/PR/UVM": "260b3b0fbba50ebc",
    "FK/PR/Subway": "a91201e64c32e8fc",
    "FK/PR/Ascetic": "41e7f6bcfe90497d",
    "GS/BFS/PT": "14f29547fec06d1c",
    "GS/BFS/UVM": "cb925b9e090f2c26",
    "GS/BFS/Subway": "4d3284ee9f6d1d4a",
    "GS/BFS/Ascetic": "e6393554d1ad752e",
    "GS/SSSP/PT": "b11d4cc03b1d56db",
    "GS/SSSP/UVM": "0d2e2307c9af1e78",
    "GS/SSSP/Subway": "c6735a4a5e88e2e6",
    "GS/SSSP/Ascetic": "95189d7aa75cf0da",
    "GS/CC/PT": "bfe136a178470cc8",
    "GS/CC/UVM": "7cfaa3874e43ef12",
    "GS/CC/Subway": "53128bf85fbb6883",
    "GS/CC/Ascetic": "905a60e925b427eb",
    "GS/PR/PT": "692d1d0f4f1482ea",
    "GS/PR/UVM": "0091de6f98de7c39",
    "GS/PR/Subway": "7a3023e162b97135",
    "GS/PR/Ascetic": "24e9d1e2495ea580",
    "GS/SSWP/Ascetic": "012210477c8aab7a",
    "FK/BFS/m0.2/Subway": "1687d128ff665f14",
    "FK/BFS/m0.2/Ascetic": "5784bea9c0a3cc71",
    "FK/BFS/m0.2/Hybrid": "013e7c07c767e5ff",
    "FK/BFS/m0.2/Sharded": "5da769799fb374ea",
    "FK/BFS/m0.6/Subway": "9735f0157160fb6c",
    "FK/BFS/m0.6/Ascetic": "e2b4621fbb164231",
    "FK/BFS/m0.6/Hybrid": "27b5fcfd75960845",
    "FK/BFS/m0.6/Sharded": "1057a30f95f71eed",
    "FK/SSSP/m0.2/Subway": "f9b3cbabb759385a",
    "FK/SSSP/m0.2/Ascetic": "83c7870a35b621cb",
    "FK/SSSP/m0.2/Hybrid": "7682b8cea26a8bdf",
    "FK/SSSP/m0.2/Sharded": "a5fd9db36a5e56a9",
    "FK/SSSP/m0.6/Subway": "2a89dd04d5407a6c",
    "FK/SSSP/m0.6/Ascetic": "b530725d8bd68fb8",
    "FK/SSSP/m0.6/Hybrid": "4f3f06382ab721c7",
    "FK/SSSP/m0.6/Sharded": "e4a3fe80f8f6be7b",
    "GS/BFS/m0.2/Subway": "3714da3efbfc3b2f",
    "GS/BFS/m0.2/Ascetic": "015d9791e696db1b",
    "GS/BFS/m0.2/Hybrid": "cb611a41ed1854fa",
    "GS/BFS/m0.2/Sharded": "48f6439ff2e04364",
    "GS/BFS/m0.6/Subway": "bcc8ef2a098c426b",
    "GS/BFS/m0.6/Ascetic": "86ecfe59a2b535cd",
    "GS/BFS/m0.6/Hybrid": "3d34726b3d9bb8ae",
    "GS/BFS/m0.6/Sharded": "a383e528b88d3a68",
    "GS/SSSP/m0.2/Subway": "51fdba45844730ba",
    "GS/SSSP/m0.2/Ascetic": "7a245ccf0666e547",
    "GS/SSSP/m0.2/Hybrid": "fd0dee66cfdd760e",
    "GS/SSSP/m0.2/Sharded": "2a54e8552c45cbf7",
    "GS/SSSP/m0.6/Subway": "d886ac33f34cd481",
    "GS/SSSP/m0.6/Ascetic": "9caa3b1f582db4c4",
    "GS/SSSP/m0.6/Hybrid": "d7a29ba238ff7634",
    "GS/SSSP/m0.6/Sharded": "3fe60ccfbaef158c",
    "FK/PR/m0.2/Subway": "5c1de695a9082d3e",
    "FK/PR/m0.2/Ascetic": "97d3c13e8a7e9de7",
    "FK/PR/m0.2/Hybrid": "6c3e630979c4f215",
    "FK/BFS/m0.2/1xAscetic": "05d0828a3723196d",
    "FK/BFS/m0.2/3xAscetic": "a409829c491941d6",
    "FK/BFS/m0.2/3xHybrid": "06fc3013a58eb0a7",
    "FK/BFS/m0.2/4xHybrid/cap3": "369ea33fc668c9c2",
    "FK/BFS/m0.6/1xHybrid": "a5c8d5b9072dae81",
    "GS/SSSP/m0.6/3xAscetic": "9d88a0a17b954d70",
    "GS/SSSP/m0.6/4xHybrid": "b182f60180d33061",
    "GS/SSSP/m0.2/3xHybrid/cap3": "270e4df34f7384b0",
    "GS/SSSP/m0.2/1xAscetic/cap3": "bbdd8f0114fb97ee",
    "GS/BFS/m0.6/3xHybrid": "0bfa929ffed88576",
    "GS/BFS/m0.2/Subway/faulted": "9256835569cc36d3",
    "GS/BFS/m0.2/Subway/recorded": "e0092a4a02dde0a6",
    "GS/BFS/m0.2/Subway-pipelined": "d0160febb57f2b2e",
    "GS/BFS/m0.2/Subway-pipelined/faulted": "d9793022d48df515",
    "GS/BFS/m0.2/Ascetic/faulted": "7eadf723be49187c",
    "GS/BFS/m0.2/Ascetic/recorded": "5e472bb2ba60bfb5",
    "GS/BFS/m0.2/Ascetic-sequential": "7d52381522d09853",
    "GS/BFS/m0.2/Ascetic-sequential/faulted": "e0df451ffa9bfc5e",
    "GS/BFS/m0.2/Hybrid/faulted": "aa5fc5a9db1d1a41",
    "GS/SSSP/m0.2/Subway/faulted": "a91825ad57a95386",
    "GS/SSSP/m0.2/Subway/recorded": "5496454d1927557c",
    "GS/SSSP/m0.2/Subway-pipelined": "91b211b21cab6983",
    "GS/SSSP/m0.2/Subway-pipelined/faulted": "cccbfea9808130af",
    "GS/SSSP/m0.2/Ascetic/faulted": "77eff475158647af",
    "GS/SSSP/m0.2/Ascetic/recorded": "445c05f4869a2545",
    "GS/SSSP/m0.2/Ascetic-sequential": "ca4ebc266835f20f",
    "GS/SSSP/m0.2/Ascetic-sequential/faulted": "4f67261018d0d91f",
    "GS/SSSP/m0.2/Hybrid/faulted": "0579d1fc7c05992e",
    "FK/BFS/chaos/PT": "c78eb4fdcfc1c919",
    "FK/BFS/chaos/UVM": "f19ea64acac32f3d",
    "FK/BFS/chaos/Subway": "915c4693490d178f",
    "FK/BFS/chaos/Ascetic": "302ecb975e5575f0",
    "FK/BFS/chaos/Hybrid": "d7cd7c9ca91a9afa",
    "GS/BFS/chaos/PT": "6987ca5b8a3cfd55",
    "GS/BFS/chaos/UVM": "eaae6c30bf2873b2",
    "GS/BFS/chaos/Subway": "adfac965f4861c86",
    "GS/BFS/chaos/Ascetic": "79cbce5117bd0964",
    "GS/BFS/chaos/Hybrid": "9f5cf38c00400471",
    "GS/SSSP/chaos/PT": "3dd74456d2d2d1c8",
    "GS/SSSP/chaos/UVM": "4b660f61e3107744",
    "GS/SSSP/chaos/Subway": "2575b55f58f77cfe",
    "GS/SSSP/chaos/Ascetic": "eba2c18a830be2dc",
    "GS/SSSP/chaos/Hybrid": "5902ad975dd4f679",
    "GS/PR/chaos/Subway": "a9462c74adb0916f",
    "GS/PR/chaos/Ascetic": "5d6ec1639a1808f1",
    "FK/BFS/chaos/Sharded": "0bc364cbc10f64b1",
    "GS/BFS/chaos/Sharded": "bd1cb853ff57b95a",
    "GS/CC/chaos/UVM": "ab04a18f25ca99c5",
    "GS/SSSP/UVM-prefetch2": "8f8b8e3407eb2b7e",
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

#: ``recorded_chaos`` op → (``chrome``, ``idle``).
CHAOS_PINS = {
    "FK/BFS/chaos/PT": ("88af852474fc579b", "7a113e3495f96c47"),
    "FK/BFS/chaos/UVM": ("5affc6bd9ae87542", "dfd077aba7422695"),
    "FK/BFS/chaos/Subway": ("ab63363f6dbb4414", "05e3a256bd505fdb"),
    "FK/BFS/chaos/Ascetic": ("c129b51ce7cbd36f", "7731b1fce74e785c"),
    "FK/BFS/chaos/Hybrid": ("9bf49c878fa39fb5", "b4583ae1c0084bd0"),
    "GS/BFS/chaos/PT": ("7a24e701019f0f06", "3b02274112eee818"),
    "GS/BFS/chaos/UVM": ("13a953fbddb0ff3f", "cdfc43e66b27891b"),
    "GS/BFS/chaos/Subway": ("ac54c08c47c6d73e", "ade0c3cb0c2f7891"),
    "GS/BFS/chaos/Ascetic": ("d5686c1267032ad2", "58a0f56e5eabbe68"),
    "GS/BFS/chaos/Hybrid": ("0a0aed461643a0eb", "e9bf9dce3a396a1c"),
    "GS/SSSP/chaos/PT": ("db9d7e742c9dacbc", "f212c4666f7d9170"),
    "GS/SSSP/chaos/UVM": ("af308786be35420a", "9c9e19e869eb39c0"),
    "GS/SSSP/chaos/Subway": ("be5d16b85e2a696b", "abf0dbafc930507a"),
    "GS/SSSP/chaos/Ascetic": ("2350d7cb718062f9", "237ec0c55e589fd0"),
    "GS/SSSP/chaos/Hybrid": ("3d4b41a956a68995", "574fd7c3777f72e9"),
    "GS/PR/chaos/Subway": ("4e6a7b04ca836cf5", "9fbc8d67e9d60452"),
    "GS/PR/chaos/Ascetic": ("9f47235dae1e0066", "1464143cb5c24ea3"),
    "FK/BFS/chaos/Sharded": ("dba8141ed9df2e21", "c81227a1adc7d89d"),
    "GS/BFS/chaos/Sharded": ("d70b059cc31864b2", "72050605ac14c2aa"),
}


@pytest.mark.parametrize("name", PINS)
def test_run_is_pinned(name):
    result = RUNS[name]()
    blob = json.dumps(result_to_payload(result))
    assert sha(blob) == PINS[name]
    if name not in CHAOS_PINS:
        return
    idle = idle_breakdown(result.event_log,
                          "gpu@0" if result.engine == "Sharded" else "gpu",
                          result.elapsed_seconds)
    assert (sha(json.dumps(to_chrome_trace(result))),
            sha(repr((idle.lead, idle.stall, idle.tail, idle.busy,
                      idle.horizon, idle.retry)))) == CHAOS_PINS[name]

    folded = validate_log(result.event_log, metrics=result.metrics,
                          horizon=result.elapsed_seconds)
    for field in COUNTER_FIELDS:
        assert getattr(folded, field) == getattr(result.metrics, field), field
    assert list(folded.phase_seconds.items()) == list(
        result.metrics.phase_seconds.items())
    rebuilt = result_from_payload(json.loads(blob))
    assert json.dumps(result_to_payload(rebuilt)) == blob
    assert rebuilt.event_log.metrics.as_dict() == result.metrics.as_dict()


def test_subway_above_the_limit_differs_from_parent_only_by_the_aggregate(
        monkeypatch):
    # The event rows of pipelined Subway's faulted GS/BFS chain before
    # chains above ROUND_LOOP_LIMIT rounds were charged in aggregate (65+
    # gather rounds in iterations 7-9 once the squeeze shrinks the staging
    # buffer): with the limit lifted the loop reproduces them.
    monkeypatch.setattr(rounds, "ROUND_LOOP_LIMIT", 10**9)
    result = RUNS["GS/BFS/m0.2/Subway-pipelined/faulted"]()
    assert sha(json.dumps(result.event_log.events.to_dicts())) == \
        "7ad8e1ec4382a2dd"
