"""Iteration checkpoints: resume a faulted cell from its last superstep.

A mid-run crash (a worker killed on timeout, a fault plan exhausting its
retry budget, the host dying) used to lose every completed iteration.  This
module snapshots the *entire* simulation state after each superstep —
frontier and iteration index, plus an opaque pickle blob holding the
engine, the simulated device (clock, lanes, event log, memory allocator),
the iteration records and the fault injector's RNG stream — so
:meth:`repro.engines.base.Engine.run` can continue from the next iteration
and produce a **bit-identical** :class:`~repro.engines.base.RunResult` to
an uninterrupted run (determinism is what makes resume trustworthy: the
resumed half replays no differently than it would have run).  Vertex
values are not in it: they are the program trace's, which the resumed run
rebuilds (or finds memoized) and replays from the next superstep.

Layout on disk: one pickle file per cell under the store root, keyed by
the cell's :meth:`~repro.runner.spec.RunSpec.cache_key` (or any caller
string).  Writes are atomic (tmp + rename) so a crash mid-write leaves the
previous checkpoint intact; unreadable/corrupt files load as ``None`` —
the runner just starts the cell from scratch.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["IterationCheckpoint", "CheckpointStore", "CheckpointWriter"]

#: Bumped when the on-disk layout changes — the blob pickles engine
#: attributes, so that includes their layout; mismatched files load as None.
#: 2: ``HotnessTable`` keeps its counters per chunk-map segment (a version-1
#: blob would unpickle into a table without the segment fields and fail
#: mid-iteration instead of at load).
#: 3: ``EventLog.events`` is an ``EventColumns`` store, not a list of row
#: objects (a version-2 blob of a recording run would unpickle a log whose
#: next emit calls ``list.add``).
#: 4: the clock's span log is gone from engines, ``SimulatedGPU`` and
#: ``VirtualClock``, and Ascetic's config object lost five fields (a version-3
#: blob would restore all of them as dead attributes).
#: 5: Ascetic's config lost ``chunk_bytes``, ``SimulatedGPU`` gained a base
#: class, and a Sharded engine's blob now carries its fleet (a version-4
#: blob would restore a dead config attribute).
#: 6: ``IterationCheckpoint`` lost ``values`` and the blob its program state:
#: engines replay the program trace (a version-5 blob pickles a full program
#: state beside the records, which ``_restore`` no longer reads).
#: 7: ``AsceticEngine`` holds its six switches (``k``, ``fill``, ...) as
#: attributes instead of a ``config`` object (a version-6 blob would restore
#: a dead ``config`` attribute and none of the switches).
#: Still 7 after ``EventColumns`` stopped materializing rows: its
#: ``__slots__`` are unchanged, so a version-7 blob loads as it did.
#: 8: the fragment geometry moved from ``HotnessTable`` onto ``ChunkMap``,
#: and ``StaticRegion``'s fragment-count cache carries a candidate flag (a
#: version-7 blob would restore a map without the geometry cache and a
#: two-field count cache that the next superstep indexes past).
#: 9: ``LaneStats`` keeps only ``busy_seconds`` and ``n_ops`` (a version-8
#: blob would restore lane stats still carrying ``first_start`` /
#: ``last_end``, which no fold maintains any more).
#: 10: ``IterationCheckpoint`` lost ``shards`` and ``ShardCheckpoint`` is
#: gone: a sharded recovery reads the live shard ranges (a version-9 file
#: would unpickle a checkpoint carrying a dead ``shards`` attribute).
CHECKPOINT_VERSION = 10


@dataclass(frozen=True)
class IterationCheckpoint:
    """One superstep's snapshot.

    ``active``/``iteration`` are the frontier the next superstep consumes
    and the post-step iteration count, in inspectable form; ``blob``
    is the authoritative pickle produced by
    :meth:`~repro.engines.base.Engine.snapshot_state`, from which the run
    is actually resumed — by every engine, Sharded included, whose blob
    holds the whole fabric, the shards and the per-device inner engines.
    """

    engine: str
    algorithm: str
    graph_name: str
    iteration: int
    active: np.ndarray
    blob: bytes


class CheckpointStore:
    """Filesystem-backed checkpoint directory (one pickle per cell key)."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, key: str) -> str:
        """The on-disk path backing ``key``."""
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
        return os.path.join(self.root, f"{safe}.ckpt")

    def save(self, key: str, checkpoint: IterationCheckpoint) -> str:
        """Atomically persist ``checkpoint`` under ``key``; returns the path."""
        path = self.path_for(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump({"version": CHECKPOINT_VERSION, "checkpoint": checkpoint},
                        fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return path

    def load(self, key: str) -> Optional[IterationCheckpoint]:
        """The latest checkpoint for ``key``, or None (missing / corrupt /
        version mismatch) — callers fall back to a from-scratch run."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            return None
        if not isinstance(payload, dict) \
                or payload.get("version") != CHECKPOINT_VERSION:
            return None
        ckpt = payload.get("checkpoint")
        return ckpt if isinstance(ckpt, IterationCheckpoint) else None

    def clear(self, key: str) -> None:
        """Drop ``key``'s checkpoint (after the cell completes)."""
        try:
            os.remove(self.path_for(key))
        except FileNotFoundError:
            pass

    def keys(self) -> List[str]:
        """Keys with a checkpoint on disk (sorted, extension stripped)."""
        return sorted(
            name[: -len(".ckpt")] for name in os.listdir(self.root)
            if name.endswith(".ckpt")
        )


class CheckpointWriter:
    """Per-run writer an :class:`~repro.engines.base.Engine` calls after
    each superstep (installed on ``engine.checkpoint`` by the harness).

    ``every`` thins the cadence: snapshot every N-th iteration (the last
    snapshot still wins — resume just replays a little more).
    """

    def __init__(self, store: CheckpointStore, key: str, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.store = store
        self.key = key
        self.every = every
        self.n_saved = 0

    def save(self, engine, gpu, graph, program, state, records) -> Optional[str]:
        """Snapshot the run right after an iteration; returns the path
        written (None when thinned out by ``every``).  ``state`` is the
        replay state of the *next* superstep."""
        done = len(records)
        if done % self.every != 0:
            return None
        ckpt = IterationCheckpoint(
            engine=engine.name,
            algorithm=program.name,
            graph_name=graph.name,
            iteration=state.iteration,
            active=state.active,
            blob=engine.snapshot_state(gpu, records),
        )
        self.n_saved += 1
        return self.store.save(self.key, ckpt)
