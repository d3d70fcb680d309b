"""An independent replay check of the gather → transfer → compute chain.

ROADMAP "Independent checks" (a), first slice.  The pins say the chain did
not *change*; this says it is *right*: a deliberately naive, op-at-a-time
pass over recorded event logs — it never calls ``stream_rounds`` or
``round_shares`` — holds every engine that streams rounds (Subway in both
modes, Ascetic in both modes, Hybrid), with and without ``standard_plan()``,
to the lane and dependency rules of Fig. 5:

* no lane overlaps itself;
* a round's transfer starts no earlier than its gather ends, its compute no
  earlier than its transfer ends (failed attempts and backoffs skipped, the
  attempt that succeeded checked);
* sequential mode: round r+1's gather starts no earlier than round r ends;
* pipelined mode: somewhere, round r+1's gather starts before round r's
  transfer ends (so the rule above is not vacuously true everywhere);
* the H2D bytes charged to the chain equal the burst-rounded payloads of the
  per-round shares, recomputed by the iterative ``ceil(left / rounds_left)``
  split from what the engine set out to move;
* every chain op carries a phase.

A chain above ``ROUND_LOOP_LIMIT`` is one starred op per stage; it is held
to the lane, phase and byte rules (its stages overlap by construction).
"""

from functools import lru_cache

import pytest

from repro.engines import registry
from repro.engines.base import AccessPath
from repro.gpusim.events import FAULT_KINDS
from repro.gpusim.faults import standard_plan

from event_log_oracles import rows
from round_oracles import iterative_split
from test_pins import ROUND_CONFIGS as CONFIGS, workload

ALGOS = ("BFS", "SSSP")
SEQUENTIAL = {"Subway", "Ascetic-sequential"}
SUBWAY_LABELS = ("gather", "subgraph", "compute")
ONDEMAND_LABELS = ("od-gather", "od-transfer", "od-compute")
SUBWAY_OFFSET_BYTES = 8  # per active vertex, beside the gathered edges

CELLS = [(algo, config, faulted) for algo in ALGOS for config in CONFIGS
         for faulted in (False, True)]


@lru_cache(maxsize=None)
def recorded(algo, config, faulted):
    """``(events, labels, {iteration: bytes the chain set out to move},
    charge scale, link)`` of one recorded run."""
    engine, opts = CONFIGS[config]
    wl = workload("GS", algo, 0.2)
    eng = registry.create(engine, spec=wl.spec, data_scale=wl.scale,
                          record_events=True, seed=0,
                          fault_plan=standard_plan() if faulted else None,
                          **opts)
    gathered = []  # Hybrid: cumulative paper-scale gather bytes per iteration
    if engine == "Hybrid":
        eng.iteration_hook = lambda e, *_: gathered.append(
            e._path_bytes[AccessPath.GATHER])
    result = eng.run(wl.graph, wl.fresh_program())
    if engine == "Subway":
        bpe = wl.graph.bytes_per_edge
        volumes = {r.iteration: r.n_active_edges * bpe
                   + r.n_active_vertices * SUBWAY_OFFSET_BYTES
                   for r in result.per_iteration}
    elif engine == "Ascetic":
        volumes = {i: o.ondemand_bytes for i, o in enumerate(eng._outcomes)}
    else:
        gathered.append(result.extra["gather_bytes"])
        volumes = {i: round((after - before) * wl.scale)
                   for i, (before, after) in enumerate(zip(gathered, gathered[1:]))}
    labels = SUBWAY_LABELS if engine == "Subway" else ONDEMAND_LABELS
    return (rows(result.event_log.events), labels, volumes, 1.0 / wl.scale,
            wl.spec.pcie)


def stage_of(event, labels):
    """Index of the chain stage a lane op belongs to (failed attempts and
    backoffs included), or None."""
    base = event.label.replace("!", "~").split("~")[0].rstrip("*")
    return labels.index(base) if event.lane and base in labels else None


def chain_ops(events, labels):
    """``{iteration: ([gathers], [transfers], [computes], [starred])}`` —
    the useful attempt of every chain op, in log order."""
    out = {}
    for e in events:
        stage = stage_of(e, labels)
        if stage is None or e.kind in FAULT_KINDS:
            continue
        stages = out.setdefault(e.iteration, ([], [], [], []))
        stages[stage].append(e)
        if e.label.endswith("*"):
            stages[3].append(e)
    return out


@pytest.mark.parametrize("algo,config,faulted", CELLS)
def test_no_lane_overlaps_itself(algo, config, faulted):
    busy_until = {}
    for e in recorded(algo, config, faulted)[0]:
        if not e.lane:
            continue
        assert e.start >= busy_until.get(e.lane, 0.0), (e.lane, e.label)
        busy_until[e.lane] = e.end


@pytest.mark.parametrize("algo,config,faulted", CELLS)
def test_every_chain_op_carries_a_phase(algo, config, faulted):
    events, labels, *_ = recorded(algo, config, faulted)
    chain = [e for e in events if stage_of(e, labels) is not None]
    assert chain
    assert [e.label for e in chain if e.phase is None] == []


@pytest.mark.parametrize("algo,config,faulted", CELLS)
def test_stages_wait_for_each_other(algo, config, faulted):
    events, labels, *_ = recorded(algo, config, faulted)
    checked = 0
    for iteration, (gathers, transfers, computes, starred) in chain_ops(
            events, labels).items():
        if starred:
            continue
        assert len(gathers) == len(transfers) >= len(computes)
        for r, (g, x) in enumerate(zip(gathers, transfers)):
            assert x.start >= g.end, (iteration, r)
            if r < len(computes):  # zero-edge rounds launch nothing
                assert computes[r].start >= x.end, (iteration, r)
            checked += 1
        if config in SEQUENTIAL:
            ends = [max(x.end, computes[r].end if r < len(computes) else 0.0)
                    for r, x in enumerate(transfers)]
            for r in range(1, len(gathers)):
                assert gathers[r].start >= ends[r - 1], (iteration, r)
    assert checked


def test_pipelined_chains_do_overlap():
    """Without this the stage rules would also pass on a serialised chain."""
    overlapping = 0
    for algo in ALGOS:
        for config in sorted(set(CONFIGS) - SEQUENTIAL):
            events, labels, *_ = recorded(algo, config, False)
            for gathers, transfers, _, _ in chain_ops(events, labels).values():
                overlapping += sum(
                    g.start < x.end for g, x in zip(gathers[1:], transfers))
    assert overlapping


@pytest.mark.parametrize("algo,config,faulted", CELLS)
def test_chain_moves_the_payload_of_its_round_shares(algo, config, faulted):
    events, labels, volumes, charge_scale, link = recorded(algo, config, faulted)
    chains = chain_ops(events, labels)
    assert chains
    for iteration, (_, transfers, _, _) in chains.items():
        n_rounds = sum(x.h2d_transfers for x in transfers)
        expected = sum(link.payload_bytes(int(round(share * charge_scale)))
                       for share in iterative_split(volumes[iteration], n_rounds))
        assert sum(x.bytes_h2d for x in transfers) == expected, iteration
