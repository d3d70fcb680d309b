"""Pins for the columnar event log: what a recorded run *retains* must not move.

The run-length access plan, the columnar :class:`EventLog` and the column
readers change how a recorded log is built, stored and read — never what it
says.  The digests below were taken from the parent commit (one frozen
``SimEvent`` per row, dense per-chunk plan in ``run_iteration``) *before*
``core/manager.py``, ``engines/base.py``, ``gpusim/events.py``,
``analysis/traces.py`` or ``harness/persistence.py`` was touched, for the 19
ops of ``bench_e2e``'s ``recorded_chaos`` workload (scale 2e-4, seed 0):

* ``log`` — every retained row's JSON (``to_dict``), in order;
* ``chrome`` — the bytes ``repro trace`` writes (``to_chrome_trace``);
* ``payload`` — the bytes the result cache writes (``result_to_payload``);
* ``idle`` — :func:`idle_breakdown` of the gpu lane, all six floats;

plus two properties checked live: ``validate_log``'s re-fold equals the
reported ``Metrics`` field for field (``phase_seconds`` floats included),
and payload → ``result_from_payload`` → payload is the identity.

Type fidelity is part of every digest: an ``int`` stays an ``int`` and a
``float`` a ``float`` in the JSON text.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.analysis.traces import to_chrome_trace
from repro.gpusim.events import COUNTER_FIELDS, idle_breakdown, validate_log
from repro.gpusim.faults import standard_fleet_plan, standard_plan
from repro.harness.experiments import make_workload, run_workload
from repro.harness.persistence import result_from_payload, result_to_payload

from test_chunk_axis_pins import SCALE, SHARDED_OPTS, event_log_hash

SEED = 0
CHAOS_ENGINES = ("PT", "UVM", "Subway", "Ascetic", "Hybrid")
#: Mirrors ``bench_e2e/workloads.py::CHAOS_CELLS`` / ``CHAOS_SHARDED``.
CHAOS_CELLS = (
    ("FK", "BFS", CHAOS_ENGINES),
    ("GS", "BFS", CHAOS_ENGINES),
    ("GS", "SSSP", CHAOS_ENGINES),
    ("GS", "PR", ("Subway", "Ascetic")),
)
CHAOS_SHARDED = (("FK", "BFS"), ("GS", "BFS"))
OPS = tuple(
    [(d, a, e) for d, a, engines in CHAOS_CELLS for e in engines]
    + [(d, a, "Sharded") for d, a in CHAOS_SHARDED]
)
OP_IDS = [f"{d}/{a}/chaos/{e}" for d, a, e in OPS]


@lru_cache(maxsize=None)
def _workload(dataset: str, algo: str):
    return make_workload(dataset, algo, scale=SCALE)


def recorded_result(dataset: str, algo: str, engine: str):
    """One ``recorded_chaos`` op, built as ``build_recorded_chaos`` does."""
    workload = _workload(dataset, algo)
    if engine != "Sharded":
        return run_workload(workload, engine, record_events=True,
                            fault_plan=standard_plan(), seed=SEED)
    horizon = run_workload(workload, "Sharded", **SHARDED_OPTS).elapsed_seconds
    plan = standard_fleet_plan(
        SEED, SHARDED_OPTS["devices"], down_at=horizon / 2,
        degrade_start=horizon * 0.6, degrade_end=horizon * 0.8)
    return run_workload(workload, "Sharded", record_events=True,
                        fault_plan=plan, seed=SEED, **SHARDED_OPTS)


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def digests(result, payload_blob: str) -> dict:
    idle_lane = "gpu@0" if result.engine == "Sharded" else "gpu"
    idle = idle_breakdown(result.event_log, idle_lane, result.elapsed_seconds)
    return {
        "rows": len(result.event_log.events),
        "log": event_log_hash(result),
        "chrome": _sha(json.dumps(to_chrome_trace(result))),
        "payload": _sha(payload_blob),
        "idle": _sha(repr((idle.lead, idle.stall, idle.tail, idle.busy,
                           idle.horizon, idle.retry))),
    }


PINS = {
    "FK/BFS/chaos/PT": {
        "rows": 126,
        "log": "4a7ff44beb84b566",
        "chrome": "88af852474fc579b",
        "payload": "c78eb4fdcfc1c919",
        "idle": "7a113e3495f96c47",
    },
    "FK/BFS/chaos/UVM": {
        "rows": 12798,
        "log": "2b91617259ee9e0f",
        "chrome": "5affc6bd9ae87542",
        "payload": "f19ea64acac32f3d",
        "idle": "dfd077aba7422695",
    },
    "FK/BFS/chaos/Subway": {
        "rows": 128,
        "log": "3de4343f9f089634",
        "chrome": "ab63363f6dbb4414",
        "payload": "915c4693490d178f",
        "idle": "05e3a256bd505fdb",
    },
    "FK/BFS/chaos/Ascetic": {
        "rows": 12860,
        "log": "ae473c0263169426",
        "chrome": "c129b51ce7cbd36f",
        "payload": "302ecb975e5575f0",
        "idle": "7731b1fce74e785c",
    },
    "FK/BFS/chaos/Hybrid": {
        "rows": 12903,
        "log": "64288e18a513a9b0",
        "chrome": "9bf49c878fa39fb5",
        "payload": "d7cd7c9ca91a9afa",
        "idle": "b4583ae1c0084bd0",
    },
    "GS/BFS/chaos/PT": {
        "rows": 180,
        "log": "8314a1b974e2a02a",
        "chrome": "7a24e701019f0f06",
        "payload": "6987ca5b8a3cfd55",
        "idle": "3b02274112eee818",
    },
    "GS/BFS/chaos/UVM": {
        "rows": 5054,
        "log": "e974c698616e2cc1",
        "chrome": "13a953fbddb0ff3f",
        "payload": "eaae6c30bf2873b2",
        "idle": "cdfc43e66b27891b",
    },
    "GS/BFS/chaos/Subway": {
        "rows": 228,
        "log": "7ac3e30c3b09bda2",
        "chrome": "ac54c08c47c6d73e",
        "payload": "adfac965f4861c86",
        "idle": "ade0c3cb0c2f7891",
    },
    "GS/BFS/chaos/Ascetic": {
        "rows": 5078,
        "log": "4a1ca3517329329a",
        "chrome": "d5686c1267032ad2",
        "payload": "79cbce5117bd0964",
        "idle": "58a0f56e5eabbe68",
    },
    "GS/BFS/chaos/Hybrid": {
        "rows": 5143,
        "log": "3ae5028a68136be6",
        "chrome": "0a0aed461643a0eb",
        "payload": "9f5cf38c00400471",
        "idle": "e9bf9dce3a396a1c",
    },
    "GS/SSSP/chaos/PT": {
        "rows": 239,
        "log": "533d628881c3e472",
        "chrome": "db9d7e742c9dacbc",
        "payload": "3dd74456d2d2d1c8",
        "idle": "f212c4666f7d9170",
    },
    "GS/SSSP/chaos/UVM": {
        "rows": 6041,
        "log": "e21e2733a78a931b",
        "chrome": "af308786be35420a",
        "payload": "4b660f61e3107744",
        "idle": "9c9e19e869eb39c0",
    },
    "GS/SSSP/chaos/Subway": {
        "rows": 256,
        "log": "de4ddd1c1da2b0a3",
        "chrome": "be5d16b85e2a696b",
        "payload": "2575b55f58f77cfe",
        "idle": "abf0dbafc930507a",
    },
    "GS/SSSP/chaos/Ascetic": {
        "rows": 6912,
        "log": "436452f48c0f3736",
        "chrome": "2350d7cb718062f9",
        "payload": "eba2c18a830be2dc",
        "idle": "237ec0c55e589fd0",
    },
    "GS/SSSP/chaos/Hybrid": {
        "rows": 6738,
        "log": "71beabd8400e213a",
        "chrome": "3d4b41a956a68995",
        "payload": "5902ad975dd4f679",
        "idle": "574fd7c3777f72e9",
    },
    "GS/PR/chaos/Subway": {
        "rows": 2177,
        "log": "31e2a3620db59805",
        "chrome": "4e6a7b04ca836cf5",
        "payload": "a9462c74adb0916f",
        "idle": "9fbc8d67e9d60452",
    },
    "GS/PR/chaos/Ascetic": {
        "rows": 43748,
        "log": "86aede28ddf6c05e",
        "chrome": "9f47235dae1e0066",
        "payload": "5d6ec1639a1808f1",
        "idle": "1464143cb5c24ea3",
    },
    "FK/BFS/chaos/Sharded": {
        "rows": 13056,
        "log": "fbdbc5a46ee30697",
        "chrome": "dba8141ed9df2e21",
        "payload": "0bc364cbc10f64b1",
        "idle": "c81227a1adc7d89d",
    },
    "GS/BFS/chaos/Sharded": {
        "rows": 5297,
        "log": "ac93c3e17017894f",
        "chrome": "d70b059cc31864b2",
        "payload": "bd1cb853ff57b95a",
        "idle": "72050605ac14c2aa",
    },
}


@pytest.mark.parametrize("dataset,algo,engine", OPS, ids=OP_IDS)
def test_recorded_op_is_bit_identical_to_parent(dataset, algo, engine):
    result = recorded_result(dataset, algo, engine)
    blob = json.dumps(result_to_payload(result))
    assert digests(result, blob) == PINS[f"{dataset}/{algo}/chaos/{engine}"]

    folded = validate_log(result.event_log, metrics=result.metrics,
                          horizon=result.elapsed_seconds)
    for name in COUNTER_FIELDS:
        assert getattr(folded, name) == getattr(result.metrics, name), name
    assert list(folded.phase_seconds.items()) == list(
        result.metrics.phase_seconds.items())

    rebuilt = result_from_payload(json.loads(blob))
    assert json.dumps(result_to_payload(rebuilt)) == blob
    assert rebuilt.event_log.metrics.as_dict() == result.metrics.as_dict()


def test_row_census_matches_the_benchmark():
    """``gpusim.events_recorded`` of one ``recorded_chaos`` pass."""
    assert sum(pin["rows"] for pin in PINS.values()) == 138_962
