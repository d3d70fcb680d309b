"""Iteration checkpoints: store round-trip, thinning, bit-exact resume."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.engines import registry
from repro.gpusim.faults import FaultPlan, standard_fleet_plan
from repro.harness.checkpoint import (
    CheckpointStore,
    CheckpointWriter,
    IterationCheckpoint,
)
from repro.harness.experiments import make_workload, run_cell, run_workload
from repro.runner import RunSpec, run_grid


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
        tuple(sorted(result.extra.items())),
        None if result.event_log is None
        else result.event_log.events.to_dicts(),
    )


def _make_engine(name, w, **kw):
    opts = dict(record_events=True, fault_plan=PLAN, seed=5)
    opts.update(kw)
    return registry.create(name, spec=w.spec, data_scale=w.scale, **opts)


def _device_loss_plan(w, victim, **opts):
    """``PLAN`` plus the standard fleet plan (device ``victim`` dies halfway,
    then a peer-link window), retimed inside this sharded run's horizon."""
    t = _make_engine("Sharded", w, **opts).run(
        w.graph, w.fresh_program()).elapsed_seconds
    fleet = standard_fleet_plan(seed=victim, n_devices=opts["devices"],
                                down_at=t / 2, degrade_start=t * 0.6,
                                degrade_end=t * 0.8)
    return replace(PLAN, device_faults=fleet.device_faults,
                   peer_degradations=fleet.peer_degradations)


#: ``(engine, options, device that dies mid-run or None, supersteps done
#: before the interrupt — None for all but the last)``.
RESUME_CASES = (
    pytest.param("Subway", {}, None, 3, id="Subway"),
    pytest.param("Ascetic", {}, None, 3, id="Ascetic"),
    pytest.param("Sharded", {"devices": 2}, None, 3, id="Sharded-2xAscetic"),
    pytest.param("Sharded", {"devices": 3, "inner": "Hybrid"}, None, 1,
                 id="Sharded-3xHybrid-first"),
    pytest.param("Sharded", {"devices": 2, "record_events": False}, None, None,
                 id="Sharded-2xAscetic-lean-last"),
    # Interrupted before the loss: the resumed half detects and recovers.
    pytest.param("Sharded", {"devices": 3}, 0, 1,
                 id="Sharded-3xAscetic-loss-after-resume"),
    # Interrupted after it: the resumed half runs on the re-tiled survivors.
    pytest.param("Sharded", {"devices": 2, "record_events": False}, 1, None,
                 id="Sharded-2xAscetic-lean-loss-before-resume"),
    pytest.param("Sharded", {"devices": 3, "inner": "Hybrid"}, 2, 3,
                 id="Sharded-3xHybrid-loss"),
)


def _dummy_checkpoint(iteration=3):
    return IterationCheckpoint(
        engine="Subway", algorithm="BFS", graph_name="g",
        iteration=iteration,
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
            iteration=2, active=np.zeros(w.graph.n_vertices, dtype=bool),
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
        attributes that no longer exist; a version-4 one an ``AsceticConfig``
        with ``chunk_bytes`` and a ``SimulatedGPU`` pickled without its base
        class; a version-5 one a checkpoint with ``values`` and a blob with
        the full program state, from before engines replayed the program
        trace; a version-6 one an Ascetic engine holding its switches in a
        ``config`` object; a version-7 one a chunk map without its fragment
        geometry cache and a region whose fragment counts carry no candidate
        flag; a version-8 one lane stats with ``first_start`` /
        ``last_end``.  All must be refused at load, and the recorded cell
        then runs from iteration 0 to the same log an undisturbed run
        retains."""
        w = make_workload("GS", "BFS", scale=SCALE)
        clean = run_workload(w, "Ascetic", record_events=True)
        store = CheckpointStore(str(tmp_path))
        for version in (2, 3, 4, 5, 6, 7, 8):
            stale = IterationCheckpoint(
                engine="Ascetic", algorithm="BFS", graph_name=w.graph.name,
                iteration=2, active=np.zeros(w.graph.n_vertices, dtype=bool),
                blob=b"version-%d engine state" % version)
            with open(store.path_for("cell"), "wb") as fh:
                pickle.dump({"version": version, "checkpoint": stale}, fh)
            assert store.load("cell") is None
            result = run_workload(w, "Ascetic", record_events=True,
                                  checkpoint=store, checkpoint_key="cell")
            assert result.iterations == clean.iterations
            assert np.array_equal(result.values, clean.values)
            assert (result.event_log.events.to_dicts()
                    == clean.event_log.events.to_dicts())

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
    def _interrupted_store(self, w, engine_name, tmp_path, stop_at=3, **kw):
        store = CheckpointStore(str(tmp_path))
        engine = _make_engine(engine_name, w, **kw)
        engine.checkpoint = CheckpointWriter(store, "cell")

        def bomb(engine_, gpu, graph, state):
            if state.iteration == stop_at:
                raise _Interrupt

        engine.iteration_hook = bomb
        with pytest.raises(_Interrupt):
            engine.run(w.graph, w.fresh_program())
        return store

    @pytest.mark.parametrize("engine_name,opts,victim,stop_at", RESUME_CASES)
    def test_resume_is_bit_identical(self, engine_name, opts, victim, stop_at,
                                     tmp_path):
        w = make_workload("GS", "BFS", scale=SCALE)
        if victim is not None:
            opts = dict(opts, fault_plan=_device_loss_plan(w, victim, **opts))
        uninterrupted = _make_engine(engine_name, w, **opts).run(
            w.graph, w.fresh_program())
        assert uninterrupted.iterations > 4  # the interruption is mid-run
        if victim is not None:
            assert uninterrupted.extra["device_losses"] == 1.0
        if stop_at is None:
            stop_at = uninterrupted.iterations - 1

        store = self._interrupted_store(w, engine_name, tmp_path, stop_at,
                                        **opts)
        ckpt = store.load("cell")
        assert ckpt is not None and ckpt.iteration == stop_at

        fresh = _make_engine(engine_name, w, **opts)
        resumed = fresh.run(w.graph, w.fresh_program(), resume_from=ckpt)
        assert fresh.resumed_iteration == stop_at
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    def test_run_grid_retry_resumes_an_interrupted_sharded_cell(self, tmp_path):
        """``Engine.run`` honours ``engine.checkpoint`` for Sharded too, so a
        retried grid cell finds a snapshot — and must resume from it."""
        spec = RunSpec("GS", "BFS", "Sharded", scale=SCALE,
                       engine_opts={"devices": 2, "inner": "Hybrid"})
        w = make_workload("GS", "BFS", scale=SCALE)
        store = CheckpointStore(str(tmp_path))
        engine = registry.create("Sharded", spec=w.spec, data_scale=w.scale,
                                 **spec.engine_kwargs())
        engine.checkpoint = CheckpointWriter(store, spec.cache_key())

        def bomb(engine_, gpu, graph, state):
            if state.iteration == 3:
                raise _Interrupt

        engine.iteration_hook = bomb
        with pytest.raises(_Interrupt):
            engine.run(w.graph, w.fresh_program())
        assert store.load(spec.cache_key()).iteration == 3

        cell = run_grid([spec], jobs=1, retries=0,
                        checkpoint_dir=str(tmp_path)).cells[0]
        assert cell.status == "ok", cell.error
        clean = run_cell(spec)
        assert np.array_equal(cell.result.values, clean.values)
        assert cell.result.elapsed_seconds == clean.elapsed_seconds
        assert cell.result.extra == clean.extra
        assert os.listdir(tmp_path) == []  # cleared on success

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
