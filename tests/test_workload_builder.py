"""One workload builder: every caller's graph view comes from the harness.

A program class names the graph view it streams (``VertexProgram.variant``)
and :func:`~repro.harness.experiments.make_workload` builds it once per
(dataset, scale, variant).  Grid cells, benchmarks and serving requests all
run on that one object, so SSSP and SSWP share a weighted graph and a load
test reuses the views (and their program traces) the grid built.  Bad input
is a ``ValueError`` naming the knob, raised when the workload is built.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import PROGRAMS
from repro.cli import ALGOS
from repro.engines.base import Engine
from repro.graph.datasets import load_dataset, rmat_dataset
from repro.harness import experiments
from repro.harness.experiments import make_workload, run_workload
from repro.serve import (ServeConfig, generate_requests, quick_config,
                         run_load_test, variant_for)

SCALE = 5e-5


def _requests(**overrides):
    kw = dict(n_requests=3, seed=0, arrival_rate=1.0, graphs=("GS",),
              algorithms=("BFS",))
    kw.update(overrides)
    return generate_requests(**kw)


#: (case id, call, what the message names).
BAD_INPUT = [
    ("dataset-scale-above-1", lambda: load_dataset("GS", scale=1.5), "scale"),
    ("dataset-scale-0", lambda: load_dataset("GS", scale=0), "scale"),
    ("dataset-scale-negative", lambda: load_dataset("GS", scale=-1), "scale"),
    ("rmat-scale-0", lambda: rmat_dataset(2.5e9, scale=0), "scale"),
    ("serve-scale-2", lambda: run_load_test(replace(quick_config(), scale=2.0)),
     "scale"),
    ("unknown-algorithm", lambda: make_workload("GS", "BOGUS", scale=SCALE),
     "BOGUS"),
    ("unknown-dataset", lambda: make_workload("NOPE", "BFS", scale=SCALE),
     "'NOPE'; choose from GS, FK, FS, UK"),
    ("zero-memory",
     lambda: make_workload("GS", "BFS", scale=SCALE, memory_bytes=0),
     "memory_bytes"),
    ("no-tenants", lambda: _requests(tenants=()), "tenants"),
    ("no-priorities", lambda: _requests(priorities=()), "priorities"),
    ("negative-deadline",
     lambda: run_load_test(replace(quick_config(), deadline=-5.0, n_requests=3)),
     "deadline"),
    ("bool-request-count", lambda: _requests(n_requests=True), "n_requests"),
    # NaN passed ``<= 0``: every arrival was NaN and a load test never ended.
    ("nan-arrival-rate", lambda: _requests(arrival_rate=float("nan")),
     "arrival_rate"),
]


@pytest.mark.parametrize("call,names", [case[1:] for case in BAD_INPUT],
                         ids=[case[0] for case in BAD_INPUT])
def test_bad_input_is_a_value_error_at_the_workload_door(call, names):
    with pytest.raises(ValueError, match=names):
        call()


@pytest.fixture(scope="module")
def served():
    """A one-device load test drawing every algorithm on GS, with the graph
    object each engine run was handed."""
    ran = []
    run = Engine.run

    def spy(self, graph, program, *args, **kwargs):
        result = run(self, graph, program, *args, **kwargs)
        ran.append((program.name, graph, result))
        return result

    config = ServeConfig(seed=4, n_requests=14, arrival_rate=0.5,
                         graphs=("GS",), algorithms=tuple(PROGRAMS),
                         scale=SCALE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "run", spy)
        fleet = run_load_test(config)
    assert {name for name, _, _ in ran} == set(PROGRAMS)
    assert len(ran) == len(fleet.run_results) == config.n_requests
    return ran


class TestOneGraphPerView:
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_the_variant_is_read_from_the_class(self, name):
        assert variant_for(name) == PROGRAMS[name].variant

    def test_the_cli_offers_every_program(self):
        assert ALGOS == tuple(PROGRAMS)

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_a_load_test_runs_on_the_harness_graph(self, served, name):
        graph = make_workload("GS", name, scale=SCALE).graph
        assert all(g is graph for n, g, _ in served if n == name)

    def test_sssp_and_sswp_share_one_weighted_graph(self):
        sssp = make_workload("GS", "SSSP", scale=SCALE)
        sswp = make_workload("GS", "SSWP", scale=SCALE)
        assert sssp.graph is sswp.graph
        assert sssp.graph.is_weighted

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_a_served_request_has_the_harness_values(self, served, name):
        expected = run_workload(make_workload("GS", name, scale=SCALE),
                                "Ascetic").values
        for n, _, result in served:
            if n == name:
                np.testing.assert_array_equal(result.values, expected)

    def test_a_held_view_outlives_the_lru(self):
        held = make_workload("GS", "PR-PULL", scale=SCALE).graph
        # Everything the LRU holds goes, as it would under 32 newer views.
        experiments._cached_view_unlocked.cache_clear()
        assert make_workload("GS", "PR-PULL", scale=SCALE).graph is held
