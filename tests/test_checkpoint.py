"""Iteration checkpoints: store round-trip, thinning, bit-exact resume."""

import pickle

import numpy as np
import pytest

from repro.engines import registry
from repro.gpusim.faults import FaultPlan
from repro.harness.checkpoint import (
    CheckpointStore,
    CheckpointWriter,
    IterationCheckpoint,
)
from repro.harness.experiments import make_workload, run_workload

SCALE = 5e-5

#: Chaos plan for the resume tests: the injector's RNG stream must survive
#: the checkpoint round-trip for these runs to stay bit-identical.
PLAN = FaultPlan(transfer_fail_rate=0.1, max_retries=8)


def _fingerprint(result):
    return (
        result.values.tobytes(),
        result.iterations,
        result.elapsed_seconds,
        result.gpu_idle_fraction,
        tuple(sorted(result.metrics.as_dict().items())),
        tuple(tuple(sorted(r.__dict__.items())) for r in result.per_iteration),
        tuple(tuple(sorted(e.to_dict().items(), key=lambda kv: kv[0]))
              for e in result.event_log.events),
    )


def _make_engine(name, w, **kw):
    return registry.create(name, spec=w.spec, data_scale=w.scale,
                           record_events=True, fault_plan=PLAN, seed=5, **kw)


def _dummy_checkpoint(iteration=3):
    return IterationCheckpoint(
        engine="Subway", algorithm="BFS", graph_name="g",
        iteration=iteration, values=np.arange(4.0),
        active=np.array([True, False, True, False]), blob=b"opaque",
    )


class _Interrupt(RuntimeError):
    pass


class TestStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        ckpt = _dummy_checkpoint()
        store.save("cell-1", ckpt)
        loaded = store.load("cell-1")
        assert loaded.engine == "Subway"
        assert loaded.iteration == 3
        assert np.array_equal(loaded.values, ckpt.values)
        assert np.array_equal(loaded.active, ckpt.active)
        assert loaded.blob == b"opaque"

    def test_missing_key_loads_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load("nope") is None

    def test_corrupt_file_loads_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("cell", _dummy_checkpoint())
        with open(store.path_for("cell"), "wb") as fh:
            fh.write(b"not a pickle")
        assert store.load("cell") is None

    def test_version_mismatch_loads_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(store.path_for("cell"), "wb") as fh:
            pickle.dump({"version": -1, "checkpoint": _dummy_checkpoint()}, fh)
        assert store.load("cell") is None

    def test_stale_v1_checkpoint_is_ignored_and_cell_runs_from_scratch(
            self, tmp_path):
        """A checkpoint written before the hotness table moved onto segments
        (layout version 1) pickles a table without the segment fields.  It
        must be refused at load — not resumed into and failing mid-iteration
        — and the cell then runs from iteration 0 to the fault-free values."""
        w = make_workload("GS", "BFS", scale=SCALE)
        clean = run_workload(w, "Ascetic")
        store = CheckpointStore(str(tmp_path))
        stale = IterationCheckpoint(
            engine="Ascetic", algorithm="BFS", graph_name=w.graph.name,
            iteration=2, values=np.zeros(w.graph.n_vertices),
            active=np.zeros(w.graph.n_vertices, dtype=bool),
            blob=b"version-1 engine state")
        with open(store.path_for("cell"), "wb") as fh:
            pickle.dump({"version": 1, "checkpoint": stale}, fh)
        assert store.load("cell") is None
        result = run_workload(w, "Ascetic", checkpoint=store,
                              checkpoint_key="cell")
        assert result.iterations == clean.iterations
        assert np.array_equal(result.values, clean.values)
        assert result.elapsed_seconds == clean.elapsed_seconds

    def test_stale_v2_checkpoint_is_ignored_and_cell_runs_from_scratch(
            self, tmp_path):
        """A checkpoint written before the event log went columnar (layout
        version 2) pickles an ``EventLog`` whose ``events`` is a list of
        ``SimEvent``; resumed into, a recording run would fail on its next
        emit.  A version-3 one pickles an engine ``record_spans``, a
        ``VirtualClock`` with a span list and five ``AsceticConfig``
        attributes that no longer exist.  Both must be refused at load, and
        the recorded cell then runs from iteration 0 to the same log an
        undisturbed run retains."""
        w = make_workload("GS", "BFS", scale=SCALE)
        clean = run_workload(w, "Ascetic", record_events=True)
        store = CheckpointStore(str(tmp_path))
        for version in (2, 3):
            stale = IterationCheckpoint(
                engine="Ascetic", algorithm="BFS", graph_name=w.graph.name,
                iteration=2, values=np.zeros(w.graph.n_vertices),
                active=np.zeros(w.graph.n_vertices, dtype=bool),
                blob=b"version-%d engine state" % version)
            with open(store.path_for("cell"), "wb") as fh:
                pickle.dump({"version": version, "checkpoint": stale}, fh)
            assert store.load("cell") is None
            result = run_workload(w, "Ascetic", record_events=True,
                                  checkpoint=store, checkpoint_key="cell")
            assert result.iterations == clean.iterations
            assert np.array_equal(result.values, clean.values)
            assert result.event_log.events == clean.event_log.events

    def test_clear_and_keys(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("a", _dummy_checkpoint())
        store.save("b", _dummy_checkpoint())
        assert store.keys() == ["a", "b"]
        store.clear("a")
        store.clear("a")  # idempotent
        assert store.keys() == ["b"]

    def test_keys_are_sanitized_for_the_filesystem(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("FK/BFS:Subway", _dummy_checkpoint())
        assert store.load("FK/BFS:Subway") is not None
        assert "/" not in store.keys()[0][2:]


class TestWriter:
    def test_every_thins_cadence(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ValueError):
            CheckpointWriter(store, "k", every=0)
        w = make_workload("GS", "BFS", scale=SCALE)
        engine = _make_engine("Subway", w)
        engine.checkpoint = CheckpointWriter(store, "k", every=3)
        result = engine.run(w.graph, w.fresh_program())
        assert result.iterations >= 3
        assert engine.checkpoint.n_saved == result.iterations // 3
        loaded = store.load("k")
        assert loaded is not None
        # The last snapshot is the last multiple of `every`.
        assert loaded.iteration == (result.iterations // 3) * 3


class TestResume:
    def _interrupted_store(self, w, engine_name, tmp_path, stop_at=3):
        store = CheckpointStore(str(tmp_path))
        engine = _make_engine(engine_name, w)
        engine.checkpoint = CheckpointWriter(store, "cell")

        def bomb(engine_, gpu, graph, state):
            if state.iteration == stop_at:
                raise _Interrupt

        engine.iteration_hook = bomb
        with pytest.raises(_Interrupt):
            engine.run(w.graph, w.fresh_program())
        return store

    @pytest.mark.parametrize("engine_name", ("Subway", "Ascetic"))
    def test_resume_is_bit_identical(self, engine_name, tmp_path):
        w = make_workload("GS", "BFS", scale=SCALE)
        uninterrupted = _make_engine(engine_name, w).run(
            w.graph, w.fresh_program())
        assert uninterrupted.iterations > 4  # the interruption is mid-run

        store = self._interrupted_store(w, engine_name, tmp_path)
        ckpt = store.load("cell")
        assert ckpt is not None and ckpt.iteration == 3

        fresh = _make_engine(engine_name, w)
        resumed = fresh.run(w.graph, w.fresh_program(), resume_from=ckpt)
        assert fresh.resumed_iteration == 3
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    def test_run_workload_resumes_and_clears(self, tmp_path):
        w = make_workload("GS", "BFS", scale=SCALE)
        store = self._interrupted_store(w, "Subway", tmp_path)
        assert store.keys() == ["cell"]
        baseline = run_workload(w, "Subway", record_events=True,
                                fault_plan=PLAN, seed=5)
        result = run_workload(w, "Subway", record_events=True,
                              fault_plan=PLAN, seed=5,
                              checkpoint=store, checkpoint_key="cell")
        assert _fingerprint(result) == _fingerprint(baseline)
        assert store.keys() == []  # cleared on success

    def test_checkpoint_requires_key(self, tmp_path):
        w = make_workload("GS", "BFS", scale=SCALE)
        with pytest.raises(ValueError, match="checkpoint_key"):
            run_workload(w, "Subway", checkpoint=CheckpointStore(str(tmp_path)))
