"""Multi-device sharded execution over a :class:`~repro.gpusim.fabric.Fabric`.

The :class:`ShardedEngine` is a *meta*-engine: it shards the edge array
across the fabric's devices (:func:`~repro.graph.shard.shard_graph`) and
instantiates one **inner** engine per device (any registered single-device
engine — Ascetic or Hybrid are the intended ones).  It is an ordinary
:class:`~repro.engines.base.Engine` whose device is the whole fabric:
:meth:`Engine.run <repro.engines.base.Engine.run>` is its superstep loop
(so it checkpoints and resumes like every other engine), and what it
contributes is the bulk-synchronous superstep body:

1. every device runs the inner engine's ``_iteration`` against its own
   shard — each shard is a full-vertex-set CSR holding only its edge
   slice, so the global frontier mask filters itself to local work;
2. a fabric-wide barrier, then an **exchange** phase: each device
   broadcasts its locally-produced value/frontier deltas (one entry per
   distinct destination its active local edges touched) to every peer over
   the inter-device links, charged to the cost model and attributed to the
   ``Texchange`` phase;
3. the run loop moves on to the program trace's next frontier.

Because the numeric computation is the one program trace every engine
replays — engines are pure data-movement policies — the sharded run's value
arrays are **bit-identical** to the single-device engines' by construction,
which the cross-device determinism tests pin.  What sharding buys is
capacity: the per-device edge slice (and the inner engine's Static Region
over it) only has to fit one device, so a graph whose edge array exceeds
any single device completes on a fabric of N.

Fleet chaos mode adds whole-device fault tolerance on top.  Device faults
in the :class:`~repro.gpusim.faults.FaultPlan` resolve at **barrier
granularity**: health is sampled at the top of every superstep
(:meth:`~repro.gpusim.fabric.Fabric.check_health`, from the run loop's
``_begin_superstep`` hook — outside the iteration stamp, so recovery
belongs to no superstep), so a device that dies
mid-superstep is discovered at the next barrier, where the replicated
vertex state is consistent.  Recovery re-shards the dead device's edge
range across the survivors (the same byte-range tiling as the initial
:func:`~repro.graph.shard.shard_graph` cut, so no edge is dropped or
duplicated), restores the superstep checkpoint
(:class:`~repro.harness.checkpoint.IterationCheckpoint` with per-shard
:class:`~repro.harness.checkpoint.ShardCheckpoint` payloads), and charges
the redistribution H2D plus a survivor re-sync exchange to the sim clock
under a ``Trecover`` phase.  Values stay bit-identical to a fault-free run
because the one program trace never depends on the shard layout; faults
cost virtual time, never correctness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.engines.base import Engine, RunResult
from repro.graph.csr import CSRGraph
from repro.graph.shard import GraphShard, shard_graph
from repro.gpusim.device import GPUSpec
from repro.gpusim.events import fold_device_faults
from repro.gpusim.fabric import Fabric, FabricSpec
from repro.gpusim.faults import FaultInjector

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.harness's package __init__ pulls in
    # the engine registry, which imports this module.
    from repro.harness.checkpoint import IterationCheckpoint

__all__ = ["ShardedEngine", "DeviceLostError", "VALUE_DELTA_BYTES"]

#: Bytes each exchanged vertex delta occupies on the wire: the vertex id
#: (int32) plus its new value (the 8-byte slot every program's value array
#: uses at paper scale).
VALUE_DELTA_BYTES = 12


def count_distinct(indices: np.ndarray, seen: np.ndarray) -> int:
    """Number of distinct values in ``indices``, via the all-False scratch
    ``seen`` (at least ``indices.max() + 1`` long; handed back all-False).

    Mark, count, unmark: ``O(len(indices))`` against ``np.unique``'s sort.
    """
    seen[indices] = True
    n = int(np.count_nonzero(seen))
    seen[indices] = False
    return n


class DeviceLostError(RuntimeError):
    """Every device of the fabric failed; there is nothing to recover onto."""


class ShardedEngine(Engine):
    """Bulk-synchronous multi-device engine wrapping per-device inner engines.

    An ordinary :class:`~repro.engines.base.Engine` whose device is a
    :class:`~repro.gpusim.fabric.Fabric`: :meth:`Engine.run` drives it, so
    it checkpoints and resumes like every other engine.

    Parameters (beyond the base :class:`~repro.engines.base.Engine` set)
    ----------------------------------------------------------------------
    fabric:
        A :class:`~repro.gpusim.fabric.FabricSpec` (or its plain-dict /
        HeteroG form) describing the device fleet.  ``None`` builds
        ``devices`` PCIe-linked devices, each inheriting the base spec's
        memory.
    devices:
        Device count shorthand when ``fabric`` is not given (default 2).
    inner:
        Registered name of the per-device engine (default ``"Ascetic"``).
    """

    name = "Sharded"

    def __init__(
        self,
        spec: Optional[GPUSpec] = None,
        max_iterations: Optional[int] = None,
        data_scale: float = 1.0,
        record_events: bool = False,
        fault_plan=None,
        seed: int = 0,
        fabric: Union[FabricSpec, Mapping, None] = None,
        devices: Optional[int] = None,
        inner: str = "Ascetic",
    ) -> None:
        super().__init__(spec=spec, max_iterations=max_iterations,
                         data_scale=data_scale,
                         record_events=record_events, fault_plan=fault_plan,
                         seed=seed)
        if isinstance(fabric, Mapping):
            fabric = FabricSpec.from_dict(fabric)
        if fabric is None:
            fabric = FabricSpec(n_devices=2 if devices is None else devices)
        elif devices is not None and devices != fabric.n_devices:
            raise ValueError(
                f"devices={devices} contradicts fabric.n_devices="
                f"{fabric.n_devices}"
            )
        if inner == self.name:
            raise ValueError("inner engine cannot be Sharded itself")
        self.fabric_spec: FabricSpec = fabric
        self.inner = inner
        # Positional view of the live fleet: _shards[i] / _inners[i] run on
        # fabric device _device_ids[i].  Recovery shrinks all three in
        # lockstep; the fabric keeps every device's lanes for accounting.
        self._device_ids: List[int] = []
        self._shards: List[GraphShard] = []
        self._inners: List[Engine] = []
        self._max_shard_bytes = 0
        self._device_losses = 0

    # bench_e2e/layers.py binds ``ShardedEngine.run`` through the class
    # ``__dict__``; until it unbinds (ROADMAP 6b) the name stays defined here.
    def run(self, graph: CSRGraph, program: VertexProgram,
            resume_from=None) -> RunResult:
        return super().run(graph, program, resume_from)

    # ------------------------------------------------------------ interface
    def _make_device(self, faults: Optional[FaultInjector]) -> Fabric:
        return Fabric(
            self.fabric_spec,
            base=self.spec,
            charge_scale=1.0 / self.data_scale,
            record_events=self.record_events,
            faults=faults,
        )

    def _new_inner(self, fabric: Fabric, device: int) -> Engine:
        from repro.engines import registry

        return registry.create(
            self.inner,
            spec=fabric.topology.gpu_spec(device),
            data_scale=self.data_scale,
            max_iterations=self.max_iterations,
        )

    def _prepare(self, fabric: Fabric, graph: CSRGraph,
                 program: VertexProgram) -> None:
        self._device_ids = list(range(fabric.n_devices))
        self._shards = shard_graph(graph, fabric.n_devices)
        self._inners = [self._new_inner(fabric, d) for d in self._device_ids]
        with fabric.phase("Tprepare"):
            for inner, shard, d in zip(self._inners, self._shards,
                                       self._device_ids):
                inner._prepare(fabric.devices[d], shard.graph, program)
        self._max_shard_bytes = max(s.local_edge_bytes for s in self._shards)
        self._device_losses = 0

    def _begin_superstep(self, fabric: Fabric, graph: CSRGraph,
                         program: VertexProgram, state: ProgramState) -> None:
        """Sample device health at the barrier and recover from any loss.

        Only under a plan that can kill or stall devices — plans without
        device faults follow the exact fault-free code path, byte for byte.
        """
        injector = fabric.faults
        if injector is None or not injector.plan.affects_devices:
            return
        barrier = self._shard_checkpoint(graph, program, state)
        dead = self._handle_device_faults(fabric, injector)
        if dead:
            self._recover(fabric, graph, program, state, dead, barrier)

    def _service_squeezes(self, gpu, graph, iteration) -> None:
        """Capacity squeezes are not applied fabric-wide (ROADMAP 5e)."""

    def _iteration(self, fabric: Fabric, graph: CSRGraph,
                   program: VertexProgram, state: ProgramState) -> None:
        # Per-device local views of the same global frontier: the shard
        # CSR zeroes foreign vertices' degrees, so no explicit masking
        # is needed, and a private state object per device keeps each
        # FrontierCache coherent for its own (shard, mask) pair.
        local_states = [ProgramState(active=state.active,
                                     iteration=state.iteration)
                        for _ in self._device_ids]
        for inner, shard, d, local in zip(self._inners, self._shards,
                                          self._device_ids, local_states):
            inner._iteration(fabric.devices[d], shard.graph, program, local)
        # Superstep barrier: everyone's local work lands before deltas
        # move — the bulk-synchronous contract that makes one global
        # trace equivalent to the single-device run.
        fabric.sync_all()
        self._exchange(fabric, local_states, state.iteration)

    def _finish(self, fabric: Fabric, graph: CSRGraph, program: VertexProgram,
                state: ProgramState) -> None:
        # Results live replicated on every device; one copy-back suffices.
        fabric.devices[self._device_ids[0]].d2h(self._result_bytes(graph),
                                                label="results")
        fabric.sync_all()

    def _report_extra(self, result: RunResult, fabric: Fabric,
                      graph: CSRGraph) -> None:
        n = fabric.n_devices
        result.extra["n_devices"] = float(n)
        result.extra["exchange_bytes"] = float(fabric.exchange_bytes)
        result.extra["max_shard_edge_bytes"] = float(
            self._max_shard_bytes / self.data_scale
        )
        horizon = fabric.clock.now
        for d in range(n):
            busy = fabric.events.busy_seconds(fabric.devices[d].gpu.key)
            result.extra[f"device{d}_gpu_busy_frac"] = (
                busy / horizon if horizon > 0 else 0.0
            )
            result.extra[f"device{d}_exchange_bytes"] = float(
                fabric.exchange_bytes_of(d)
            )
        # Fault telemetry: only *observed* faults are reported, so a plan
        # whose device loss lands after the final superstep (or a run with
        # no plan at all) produces the exact fault-free extras — pinned by
        # the digest-stability regression tests.  The run loop reported
        # every counter; keep the nonzero ones, sorted, after the devices'.
        counts = {key: result.extra.pop(key) for key in list(result.extra)
                  if key.startswith("fault_")}
        result.extra.update((key, counts[key]) for key in sorted(counts)
                            if counts[key])
        if self._device_losses:
            result.extra["device_losses"] = float(self._device_losses)
        if self.record_events:
            per_device = fold_device_faults(fabric.events.events)
            for dev in sorted(per_device,
                              key=lambda d: -1 if d is None else d):
                prefix = "" if dev is None else f"device{dev}_"
                for key in sorted(per_device[dev]):
                    result.extra[prefix + key] = float(per_device[dev][key])

    # ------------------------------------------------------- fault handling
    def _shard_checkpoint(self, graph: CSRGraph, program: VertexProgram,
                          state: ProgramState) -> "IterationCheckpoint":
        """Snapshot the superstep barrier state plus per-shard layout.

        Taken at every barrier, before device health is sampled, so when a
        death is detected the checkpoint is exactly the consistent state
        every survivor already replicates — recovery restores placement and
        charges traffic, it never needs to roll numeric state back (the
        values are the program trace's).
        """
        from repro.harness.checkpoint import (IterationCheckpoint,
                                              ShardCheckpoint)

        return IterationCheckpoint(
            engine=self.name,
            algorithm=program.name,
            graph_name=graph.name,
            iteration=state.iteration,
            active=state.active,
            blob=b"",
            shards=tuple(
                ShardCheckpoint(
                    device=d,
                    e_lo=shard.e_lo,
                    e_hi=shard.e_hi,
                    restore_bytes=graph.vertex_state_bytes,
                )
                for shard, d in zip(self._shards, self._device_ids)
            ),
        )

    def _handle_device_faults(self, fabric: Fabric,
                              injector: FaultInjector) -> List[int]:
        """Sample device health at the barrier; charge stalls, report deaths.

        A transient stall occupies the device's compute lane for the
        remainder of the stall window (kind ``device-stall``, counted as
        retry/wasted time) — the next barrier simply waits it out.  Newly
        ``down`` devices are returned for :meth:`_recover`.
        """
        dead: List[int] = []
        for d, new in fabric.check_health():
            if new == "down":
                dead.append(d)
            elif new == "stalled":
                now = fabric.clock.now
                dur = injector.stall_end(d, now) - now
                if dur > 0:
                    fabric.devices[d].gpu.submit(
                        dur, f"dev{d}-stall", kind="device-stall",
                        counters={"retry_seconds": dur},
                    )
        return dead

    def _recover(self, fabric: Fabric, graph: CSRGraph,
                 program: VertexProgram, state: ProgramState,
                 dead: List[int], checkpoint: "IterationCheckpoint") -> None:
        """Re-shard the dead devices' edge ranges across the survivors.

        All recovery work is attributed to a ``Trecover`` phase: a typed
        ``reshard`` marker per lost device (its orphaned edge range), a
        fresh inner-engine ``_prepare`` per survivor (the redistribution
        H2D of the re-tiled shards), a charged checkpoint-restore H2D per
        survivor, and one survivors-only exchange round re-syncing the
        active frontier's deltas.  Numeric state needs no rollback — the
        values are the program trace's — so they stay bit-identical to a
        fault-free run.
        """
        survivors = [d for d in self._device_ids if d not in dead]
        if not survivors:
            raise DeviceLostError(
                f"all {len(self._device_ids)} device(s) failed at "
                f"iteration {state.iteration}; nothing to recover onto"
            )
        old_range = {s.device: (s.e_lo, s.e_hi) for s in checkpoint.shards}
        with fabric.phase("Trecover", iteration=state.iteration):
            now = fabric.clock.now
            for d in sorted(dead):
                e_lo, e_hi = old_range.get(d, (0, 0))
                fabric.events.marker(
                    "reshard", f"dev{d}", now, device=d,
                    extra=(("device", float(d)),
                           ("e_lo", float(e_lo)),
                           ("e_hi", float(e_hi)),
                           ("survivors", float(len(survivors)))),
                )
            new_shards = shard_graph(graph, len(survivors))
            new_inners: List[Engine] = []
            for pos, d in enumerate(survivors):
                gpu_d = fabric.devices[d]
                inner = self._new_inner(fabric, d)
                # Redistribution H2D: the survivor drops its old shard's
                # placement and re-stages the (larger) re-tiled shard
                # exactly like the initial placement did.
                gpu_d.memory.release_all()
                inner._prepare(gpu_d, new_shards[pos].graph, program)
                restore = graph.vertex_state_bytes
                gpu_d.h2d(restore, label="ckpt-restore")
                fabric.events.marker(
                    "ckpt-restore", f"dev{d}", fabric.clock.now, device=d,
                    extra=(("bytes", float(restore)),
                           ("iteration", float(checkpoint.iteration))),
                )
                new_inners.append(inner)
            # Survivors re-sync the in-flight frontier deltas among
            # themselves so every replica agrees before the next superstep.
            payload = int(state.active.sum()) * VALUE_DELTA_BYTES
            if len(survivors) > 1 and payload > 0:
                per_pair = {
                    (a, b): payload
                    for a in survivors for b in survivors if a != b
                }
                fabric.all_exchange(per_pair, label="recovery-exchange")
        fabric.sync_all()
        self._device_ids, self._shards, self._inners = \
            survivors, new_shards, new_inners
        self._device_losses += len(dead)
        self._max_shard_bytes = max(
            self._max_shard_bytes,
            max(s.local_edge_bytes for s in new_shards),
        )

    # ------------------------------------------------------------- exchange
    def _exchange(self, fabric: Fabric, local_states: List[ProgramState],
                  iteration: int) -> None:
        """Broadcast each shard's value/frontier deltas to every live peer.

        Vertex state is replicated, so after local compute each device owns
        the freshest values for exactly the destinations its local edges
        pushed to this superstep; those deltas (vertex id + value, deduped
        per destination) go to all peers over the inter-device links.  The
        frontier walk is the one the inner engine already memoized on this
        ``(shard, mask)`` pair — no second mask walk.  Only the surviving
        fleet participates — dead devices neither send nor receive.
        """
        shards, device_ids = self._shards, self._device_ids
        if len(device_ids) == 1:
            return
        per_pair: Dict[Tuple[int, int], int] = {}
        # Every shard is a full-vertex-set CSR, so one scratch serves all.
        seen = np.zeros(shards[0].graph.n_vertices, dtype=bool)
        for pos, d in enumerate(device_ids):
            shard = shards[pos]
            exp = local_states[pos].frontier(shard.graph)
            if exp.n_edges == 0:
                continue
            n_updated = count_distinct(shard.graph.indices[exp.positions], seen)
            # n_updated counts scaled-graph vertices, so this payload is in
            # scaled bytes, exactly like every h2d(nbytes) call; the fabric
            # charges it at paper scale.
            payload = n_updated * VALUE_DELTA_BYTES
            for peer in device_ids:
                if peer != d:
                    per_pair[(d, peer)] = payload
        if not per_pair:
            return
        with fabric.phase("Texchange", iteration=iteration):
            fabric.all_exchange(per_pair)
        fabric.sync_all()
