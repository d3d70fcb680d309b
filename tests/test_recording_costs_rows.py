"""Guard: recording a run costs rows, not objects or chunk-length arrays.

Before the columnar log, 94.5 % of a recorded ``recorded_chaos`` pass's rows
were per-run ``access-path`` markers built one ``EventLog.marker`` call (one
frozen 25-field ``SimEvent``) at a time — 41 384 calls for GS/PR/Ascetic —
and ``run_iteration``'s recorded branch expanded the touch counts to one
entry per chunk (``np.repeat(seg_touch, seg_len)``, ~10⁶ entries) to feed
them.  Now a plan's runs go in with one ``marker_block`` and the plan itself
is run-length in both modes.  This test keeps it that way, for every
registered engine: recorded under the standard fault plan,

* ``EventLog.marker`` is called at most once per lane op plus a small
  per-iteration allowance (plan summary, UVM fault, squeeze and shrink
  markers) — never once per granule run;
* nothing inside ``run_iteration`` builds an array with an entry per chunk
  (``np.repeat`` is how the dense path did, so its outputs are sized), and
  ``StaticRegion.chunk_touch_counts`` — the dense view — is never called.

Both conditions fail at the parent commit.
"""

import numpy as np
import pytest

from repro.core import manager
from repro.core.static_region import StaticRegion
from repro.engines import registry
from repro.gpusim.events import EventLog
from repro.gpusim.faults import standard_plan
from repro.harness.experiments import make_workload, run_workload

SCALE = 2e-4
ENGINE_OPTS = {"Sharded": {"devices": 4, "inner": "Ascetic"}}
#: Single markers an iteration may legitimately emit, with room to spare.
MARKERS_PER_ITERATION = 8


@pytest.mark.parametrize("algo", ["BFS", "PR"])
def test_recording_emits_blocks_and_builds_nothing_chunk_length(algo, monkeypatch):
    workload = make_workload("GS", algo, scale=SCALE)
    marker_calls = [0]
    oversized = []
    n_chunks = [None]  # set while run_iteration is on the stack

    real_marker, real_repeat = EventLog.marker, np.repeat
    real_run_iteration = manager.run_iteration

    def counted_marker(self, *args, **kwargs):
        marker_calls[0] += 1
        return real_marker(self, *args, **kwargs)

    def sized_repeat(*args, **kwargs):
        out = real_repeat(*args, **kwargs)
        if n_chunks[0] is not None and out.size >= n_chunks[0]:
            oversized.append(out.size)
        return out

    def watched_run_iteration(gpu, graph, program, state, region, *args, **kw):
        n_chunks[0] = region.chunk_map.n_chunks
        try:
            return real_run_iteration(gpu, graph, program, state, region,
                                      *args, **kw)
        finally:
            n_chunks[0] = None

    def dense_view(self, active):
        raise AssertionError("chunk_touch_counts called on the iteration path")

    monkeypatch.setattr(EventLog, "marker", counted_marker)
    monkeypatch.setattr(np, "repeat", sized_repeat)
    monkeypatch.setattr(StaticRegion, "chunk_touch_counts", dense_view)
    # AsceticEngine imported the name; rebind it where it is looked up.
    from repro.core import ascetic
    monkeypatch.setattr(ascetic, "run_iteration", watched_run_iteration)

    engines = registry.available()
    assert len(engines) >= 6
    over_budget = {}
    for engine in engines:
        marker_calls[0] = 0
        result = run_workload(workload, engine, record_events=True,
                              fault_plan=standard_plan(), seed=0,
                              **ENGINE_OPTS.get(engine, {}))
        lane_ops = sum(s.n_ops for s in result.event_log.lane_stats.values())
        budget = lane_ops + MARKERS_PER_ITERATION * max(result.iterations, 1)
        if marker_calls[0] > budget:
            over_budget[engine] = (
                f"{marker_calls[0]} marker() calls for {lane_ops} lane ops "
                f"over {result.iterations} iterations "
                f"({len(result.event_log.events)} rows)")
    assert not over_budget
    assert not oversized, f"chunk-length arrays in run_iteration: {oversized[:5]}"
