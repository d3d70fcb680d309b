"""Tests for the experiment harness and the sweeps the figures declare."""

import pytest

from repro.engines import registry
from repro.harness.experiments import (
    clear_dataset_cache,
    make_workload,
    run_cell,
    run_workload,
    workload_for_spec,
)
from repro.harness.persistence import result_to_payload
from repro.runner import RunSpec, run_grid

SCALE = 5e-5  # tiny but structurally faithful


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


class TestWorkloads:
    def test_engine_registry(self):
        assert set(registry.available()) == {
            "PT", "UVM", "Subway", "Ascetic", "Hybrid", "Sharded"}

    def test_make_workload_basic(self):
        w = make_workload("FK", "BFS", scale=SCALE)
        assert w.algorithm == "BFS"
        assert w.graph.n_vertices > 0
        assert w.spec.memory_bytes == w.dataset.gpu_memory_bytes

    def test_sssp_gets_weights(self):
        w = make_workload("FK", "SSSP", scale=SCALE)
        assert w.graph.is_weighted
        assert not make_workload("FK", "BFS", scale=SCALE).graph.is_weighted

    def test_fresh_program_independent(self):
        w = make_workload("FK", "PR", scale=SCALE)
        assert w.fresh_program() is not w.fresh_program()

    def test_memory_override(self):
        w = make_workload("FK", "BFS", scale=SCALE, memory_bytes=123456)
        assert w.spec.memory_bytes == 123456

    def test_dataset_cached(self):
        a = make_workload("FK", "BFS", scale=SCALE)
        b = make_workload("FK", "CC", scale=SCALE)
        assert a.dataset is b.dataset


class TestRunCell:
    def test_all_engines_complete(self):
        w = make_workload("FK", "BFS", scale=SCALE)
        results = {name: run_workload(w, name) for name in registry.available()}
        for res in results.values():
            assert res.elapsed_seconds > 0

    def test_engine_kwargs_forwarded(self):
        w = make_workload("FK", "BFS", scale=SCALE)
        res = run_workload(w, "Ascetic", overlap=False)
        assert res.engine == "Ascetic"

    def test_run_cell_accepts_runspec(self):
        from repro.runner import RunSpec

        res = run_cell(RunSpec("FK", "BFS", "Subway", scale=SCALE))
        assert res.engine == "Subway"
        assert res.algorithm == "BFS"

    def test_run_cell_runspec_rejects_extra_args(self):
        from repro.runner import RunSpec

        with pytest.raises(TypeError):
            run_cell(RunSpec("FK", "BFS", "Subway", scale=SCALE), "Ascetic")

    def test_run_cell_takes_a_runspec_only_and_matches_run_workload(self):
        import numpy as np
        from repro.runner import RunSpec

        w = make_workload("FK", "BFS", scale=SCALE)
        with pytest.raises(TypeError, match="RunSpec"):
            run_cell(w)
        cell = run_cell(RunSpec("FK", "BFS", "Subway", scale=SCALE))
        direct = run_workload(w, "Subway")
        assert np.array_equal(cell.values, direct.values)
        assert cell.elapsed_seconds == direct.elapsed_seconds


def ratio_specs(*ratios):
    """Fig. 10's cells on CC/FK: Ascetic at each forced ratio, adaptive off."""
    return [RunSpec("FK", "CC", "Ascetic", scale=SCALE, engine_opts={
                "forced_ratio": r, "adaptive": False}) for r in ratios]


class TestSweeps:
    """The model properties behind Figs. 10 and 11, over the specs their
    benchmark modules declare."""

    def test_static_ratio_sweep(self):
        report = run_grid(ratio_specs(0.0, 0.5, 0.9))
        low, _, high = (c.result.metrics.phase_seconds for c in report.cells)
        # More static region ⇒ more static compute, less transfer.
        assert high["Tsr"] > low["Tsr"]
        assert high["Ttransfer"] < low["Ttransfer"]

    def test_static_ratio_sweep_parallel_matches_serial(self):
        specs = ratio_specs(0.0, 0.9) + [RunSpec("FK", "CC", "Subway",
                                                 scale=SCALE)]
        serial, parallel = (run_grid(specs, jobs=jobs) for jobs in (1, 2))
        assert ([result_to_payload(c.result) for c in serial.cells]
                == [result_to_payload(c.result) for c in parallel.cells])

    def test_memory_sweep(self):
        """A spec's ``memory_bytes`` is the card the engine sizes its Static
        Region against: less memory, fewer static edges."""
        data = make_workload("FK", "CC", scale=SCALE).graph.dataset_bytes
        small, large = (run_cell(RunSpec("FK", "CC", "Ascetic", scale=SCALE,
                                         memory_bytes=int(data * frac)))
                        for frac in (0.4, 0.8))
        assert 0 < small.extra["static_edges"] < large.extra["static_edges"]

    def test_rmat_sweep(self):
        """Fig. 11 right's premise: against a fixed card, memory:dataset
        falls as the RMAT member a spec names grows."""
        specs = [RunSpec(name, "CC", "Ascetic", scale=2e-5, memory_bytes=1 << 20)
                 for name in ("RMAT-2.5B", "RMAT-5B")]
        fracs = [s.memory_bytes / workload_for_spec(s).graph.dataset_bytes
                 for s in specs]
        assert fracs[0] > fracs[1]


class TestExtensionWorkloads:
    def test_sswp_gets_weights_and_source(self):
        w = make_workload("FK", "SSWP", scale=SCALE)
        assert w.graph.is_weighted
        prog = w.fresh_program()
        assert prog.name == "SSWP"
        res = run_workload(w, "Ascetic")
        assert res.algorithm == "SSWP"

    def test_pr_pull_streams_reverse_graph(self):
        fwd = make_workload("UK", "PR", scale=SCALE)
        pull = make_workload("UK", "PR-PULL", scale=SCALE)
        assert pull.graph.n_edges == fwd.graph.n_edges
        # Reverse CSR: out-degrees differ from the forward graph's.
        import numpy as np

        assert not np.array_equal(pull.graph.out_degree(), fwd.graph.out_degree())
        res = run_workload(pull, "Subway")
        assert res.iterations > 1


class TestPersistenceIntegration:
    def test_grid_cell_round_trips(self, tmp_path):
        from repro.harness.persistence import load_results, save_results

        w = make_workload("FK", "BFS", scale=SCALE)
        res = run_workload(w, "Ascetic")
        p = tmp_path / "cell.json"
        save_results([res], p, include_iterations=True)
        loaded = load_results(p)[0]
        assert loaded["algorithm"] == "BFS"
        assert loaded["extra"]["static_ratio"] == res.extra["static_ratio"]
        assert len(loaded["per_iteration"]) == res.iterations


class TestDatasetCacheConcurrency:
    """The memoized dataset load is lock-serialized: a concurrent miss must
    run the loader once and hand every caller the *same* Dataset object —
    object identity is what the serve layer's warm-region validity and the
    frontier cache key on, so a duplicate load is silent breakage."""

    def test_concurrent_miss_loads_once_and_shares_the_object(self, monkeypatch):
        import threading
        import time

        from repro.harness import experiments

        calls = []
        real_load = experiments.load_dataset

        def slow_counting_load(abbr, scale):
            calls.append(abbr)
            time.sleep(0.05)  # widen the race window lru_cache alone loses
            return real_load(abbr, scale=scale)

        monkeypatch.setattr(experiments, "load_dataset", slow_counting_load)
        clear_dataset_cache()
        try:
            results = [None] * 8
            barrier = threading.Barrier(len(results))

            def worker(i):
                barrier.wait()
                results[i] = experiments._cached_dataset("GS", SCALE)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert calls == ["GS"]  # loaded exactly once
            assert all(r is results[0] for r in results)  # one shared object
        finally:
            clear_dataset_cache()  # drop the monkeypatched-loader's product
