"""The GPU-side Manager: one overlapped Ascetic iteration (§3.1–§3.4).

Schedule per iteration (Fig. 4 numbering, Fig. 5 timeline):

1. **GenDataMap** — a GPU scan produces StaticMap and OndemandMap from
   ActiveBitmap ∧/⊕ StaticBitmap.
2. **Adaptive repartition** (§3.3) — if the measured on-demand volume
   overflows its region while the static region is cold, shrink the static
   region by Eq. 3, return the chunks' memory to the on-demand region, and
   regenerate the map.
3. **Static computing** — the GPU processes StaticNodes' edges straight out
   of the Static Region (phase ``Tsr``); *simultaneously* the On-demand
   Engine gathers the OndemandNodes' edges on the CPU (``Tfilling``) and
   streams them over PCIe (``Ttransfer``).
4. **On-demand computing** — the GPU lane picks up each transferred round
   (``Tondemand``); rounds pipeline (round r+1 gathers while round r
   computes).
5. **Static update** (§3.4) — while the GPU chews on the on-demand data the
   copy engine is idle, so the replacement server swaps stale chunks into
   the Static Region, bounded by that idle window (``Tswap``).

``overlap=False`` degrades step 3/4 to the strictly sequential baseline
schedule (Fig. 5 top) — that switch is exactly how the paper isolates
*Static savings* from *Overlapping savings* in Fig. 8.

Touch accounting has one representation: per-segment counts from
:meth:`StaticRegion.segment_touch_counts`, computed once per iteration and
fed to the transfer policy's plan marker and the §3.4 hotness table alike.
Recording only decides what is *emitted*: with ``record_events=True`` every
op and every per-run ``access-path`` marker is retained (traces, span logs
and ``validate_log`` stay byte-identical); the lean log gets the plan's
summary marker from interval counts and folds the round loop through
:meth:`EventLog.emit_batch` — every time stamp, counter and phase second
bit-identical to the recorded schedule, which the lean≡recorded property
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.engines.base import AccessPath, RegionPolicy, emit_access_plan
from repro.core.bitmaps import split_active
from repro.core.ondemand import plan_ondemand, round_shares
from repro.core.ratio import check_repartition
from repro.core.replacement import HotnessTable
from repro.core.static_region import StaticRegion
from repro.graph.csr import CSRGraph
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.memory import Allocation

__all__ = ["IterationOutcome", "run_iteration"]


@dataclass
class IterationOutcome:
    """Accounting detail of one Ascetic iteration (consumed by analysis)."""

    static_edges: int = 0
    ondemand_edges: int = 0
    ondemand_bytes: int = 0
    swap_bytes: int = 0
    repartitioned: bool = False
    n_rounds: int = 0
    promoted_chunks: int = 0


def run_iteration(
    gpu: SimulatedGPU,
    graph: CSRGraph,
    program: VertexProgram,
    state: ProgramState,
    region: StaticRegion,
    hotness: HotnessTable,
    static_alloc: Allocation,
    ondemand_alloc: Allocation,
    overlap: bool = True,
    replacement: bool = True,
    adaptive: bool = True,
    lazy_fill: bool = False,
    fragment_chunks: int = 64,
    policy=None,
    engine_label: str = "Ascetic",
) -> IterationOutcome:
    """Schedule one iteration; returns its accounting."""
    out = IterationOutcome()
    n = graph.n_vertices
    bpe = graph.bytes_per_edge
    # The plan's summary marker needs only interval counts when nothing
    # retains per-chunk output: the log folds (no per-event retention) and
    # the policy is Ascetic's own region-residency policy.  Any other
    # policy may read per-chunk touch counts, and a recording log wants the
    # per-run markers, so those get the dense plan.
    lean = not gpu.events.record and (
        policy is None
        or (type(policy) is RegionPolicy and policy.region is region)
    )

    # ➊ Generate the data maps (two bitmap passes + compaction scan).
    with gpu.phase("Tmap"):
        t_map = gpu.vertex_scan(n, passes=2, label="gen-datamap")
    static_bitmap = region.vertex_static_bitmap()
    smap, odmap = split_active(state.active, static_bitmap)
    plan = plan_ondemand(graph, odmap, _stream_cap(ondemand_alloc, region))
    # StaticMap and OndemandMap partition the active mask, so the static
    # edge count is the (memoized, already-paid-for) total minus the plan's
    # on-demand count — no second walk over the mask.
    total_edges = state.active_edges(graph)
    static_edges = total_edges - plan.n_edges

    # ➋ Adaptive repartitioning (§3.3, Eq. 3).  During a lazy warm-up the
    # region is empty by construction, which would read as "under-utilized"
    # and shrink it to nothing — the check only makes sense once filled.
    if adaptive and not (lazy_fill and region.free_chunks > 0):
        v_static = static_edges * bpe
        v_total = v_static + plan.edge_bytes
        decision = check_repartition(
            v_ondemand=plan.total_bytes,
            ondemand_capacity=ondemand_alloc.nbytes,
            v_static=v_static,
            static_capacity=max(static_alloc.nbytes, 1),
            v_total=v_total,
            dataset_bytes=max(graph.edge_array_bytes, 1),
        )
        if decision.repartition and decision.shrink_bytes > 0:
            new_static = max(static_alloc.nbytes - decision.shrink_bytes, 0)
            region.shrink_to(new_static)
            freed = static_alloc.nbytes - region.capacity_chunks * region.chunk_bytes
            gpu.memory.resize(static_alloc, region.capacity_chunks * region.chunk_bytes)
            gpu.memory.resize(ondemand_alloc, ondemand_alloc.nbytes + freed)
            out.repartitioned = True
            # Bitmaps changed: regenerate the data map (§3.3).
            with gpu.phase("Tmap"):
                t_map = gpu.vertex_scan(n, passes=2, label="regen-datamap")
            static_bitmap = region.vertex_static_bitmap()
            smap, odmap = split_active(state.active, static_bitmap)
            plan = plan_ondemand(graph, odmap, _stream_cap(ondemand_alloc, region))
            static_edges = total_edges - plan.n_edges

    out.static_edges = static_edges
    out.ondemand_edges = plan.n_edges
    out.ondemand_bytes = plan.total_bytes
    out.n_rounds = plan.n_rounds

    # Per-chunk decisions through the shared TransferPolicy API: the
    # movement scheduled below follows them.  The touch counts are computed
    # once, per chunk-map segment, and reused for the hotness update in step
    # ➍½ (the active mask does not change mid-iteration).
    seg_touch = region.segment_touch_counts(state.active)
    if policy is not None and lean:
        touched = region.chunk_map.segment_runs(seg_touch > 0)
        n_touched = touched.n_chunks
        if n_touched:
            # RegionPolicy's plan over the touched ids is RESIDENT for
            # resident chunks and the fallback path for the rest, so the
            # summary marker needs only the two counts — same event, same
            # extra tuple as emit_access_plan's bincount.
            n_res = region.resident_count_in_runs(touched.starts, touched.ends)
            counts = [0, 0, 0, 0]
            counts[int(AccessPath.RESIDENT)] = n_res
            counts[int(policy.fallback)] += n_touched - n_res
            summary = tuple(
                (path.name.lower(), float(counts[path]))
                for path in AccessPath if counts[path]
            )
            gpu.events.marker("access-path", f"{engine_label}:chunk",
                              gpu.clock.now, extra=summary)
    elif policy is not None:
        # Chunk-length on purpose: the policy protocol and the recorded
        # per-run markers are per chunk id.
        touch = np.repeat(seg_touch, region.chunk_map.seg_len)
        touched_ids = np.nonzero(touch)[0]
        if touched_ids.size:
            paths = policy.plan(state.iteration, touched_ids,
                                touch[touched_ids], hotness)
            emit_access_plan(gpu, engine_label, "chunk", touched_ids, paths)

    # ➌ Static computing — overlapped (or not) with the on-demand chain.
    if overlap:
        with gpu.phase("Tsr"):
            gpu.edge_kernel(
                static_edges, label="static-compute", atomics=program.atomics,
                after=t_map,
            )
        # The request/offset list download is PCIe traffic like the round
        # transfers it gates — unattributed it would vanish from the Fig. 8
        # breakdown (the null-phase regression test pins this).
        with gpu.phase("Ttransfer"):
            prev = gpu.d2h(plan.request_bytes, label="od-requests",
                           after=t_map)
        if plan.n_rounds > ROUND_LOOP_LIMIT:
            _stream_aggregate(gpu, plan, program, after=prev, sequential=False)
        elif (plan.n_rounds and not gpu.events.record and gpu.faults is None
              and not gpu.clock.record):
            _stream_rounds_batched(gpu, plan, program, after=prev)
        else:
            for rnd in plan.iter_rounds():
                with gpu.phase("Tfilling"):
                    t_gather = gpu.cpu_gather(rnd.nbytes, label="od-gather",
                                              after=prev)
                with gpu.phase("Ttransfer"):
                    t_xfer = gpu.h2d(rnd.nbytes, label="od-transfer",
                                     after=t_gather)
                with gpu.phase("Tondemand"):
                    gpu.edge_kernel(rnd.n_edges, label="od-compute",
                                    atomics=program.atomics, after=t_xfer)
                prev = t_gather  # next gather may start while this round flies
    else:
        with gpu.phase("Tsr"):
            t_static = gpu.edge_kernel(static_edges, label="static-compute",
                                       atomics=program.atomics, after=t_map)
        gpu.sync(t_static)
        with gpu.phase("Ttransfer"):
            t_req = gpu.d2h(plan.request_bytes, label="od-requests")
        gpu.sync(t_req)
        if plan.n_rounds > ROUND_LOOP_LIMIT:
            _stream_aggregate(gpu, plan, program, after=gpu.clock.now, sequential=True)
        else:
            for rnd in plan.iter_rounds():
                with gpu.phase("Tfilling"):
                    t = gpu.cpu_gather(rnd.nbytes, label="od-gather")
                gpu.sync(t)
                with gpu.phase("Ttransfer"):
                    t = gpu.h2d(rnd.nbytes, label="od-transfer")
                gpu.sync(t)
                with gpu.phase("Tondemand"):
                    t = gpu.edge_kernel(rnd.n_edges, label="od-compute",
                                        atomics=program.atomics)
                gpu.sync(t)

    # ➍½ Lazy fill: on-demand data that just landed on the device is kept
    # in the Static Region while there is room (a device-side copy, free of
    # PCIe traffic).  Once the region is full, §3.4 replacement takes over.
    hotness.update(seg_touch)
    if lazy_fill and region.free_chunks > 0:
        promoted = region.promote_vertices(odmap)
        out.promoted_chunks = promoted
    # ➎ Static update during the on-demand compute window (§3.4).
    elif replacement:
        budget_chunks = _swap_budget_chunks(gpu, region)
        swap = hotness.plan_swaps(
            region.resident, budget_chunks, fragment_chunks,
            resident_counts=region.fragment_resident_counts(fragment_chunks),
        )
        if swap.n_swaps:
            moved = region.swap(swap.evict, swap.load)
            out.swap_bytes = moved
            # Both halves of the replacement server's work belong to Tswap
            # (§3.4): the CPU staging of the incoming chunks and the H2D
            # copy it gates.  The copy must wait for the gather — without
            # the dependency the copy engine would start the swap
            # mid-gather, understating Tswap and overstating the overlap
            # the Fig. 8 breakdown isolates.
            with gpu.phase("Tswap"):
                t_gather = gpu.cpu_gather(moved, label="swap-gather")
                gpu.h2d(moved, label="static-swap", after=t_gather)

    gpu.sync()
    return out


def _swap_budget_chunks(gpu: SimulatedGPU, region: StaticRegion) -> int:
    """Chunks whose swap H2D provably fits the §3.4 idle window.

    The window is the copy engine's idle time under the GPU's current
    horizon.  Budgeting it at raw link bandwidth ignores what the
    ``static-swap`` H2D is actually charged — one per-transfer latency plus
    the *burst-rounded* payload — so a raw-bandwidth budget can plan swaps
    that overrun the window they were supposed to hide inside.  Instead
    divide by the full charged cost of one chunk: ``k`` chunks in one
    transfer then cost ``latency + payload_bytes(k·chunk)/bw ≤
    k · transfer_seconds(chunk)``, so any budgeted swap completes inside
    the window (the property the budget-window regression test pins).
    """
    window = max(gpu.gpu.busy_until - gpu.copy.busy_until, 0.0)
    if window <= 0.0:
        return 0
    # The window buys paper-scale seconds; chunks are scaled bytes, so
    # price the chunk at its *charged* size.
    charged_chunk = int(round(region.chunk_bytes * gpu.charge_scale))
    per_chunk = gpu.spec.pcie.transfer_seconds(charged_chunk)
    if per_chunk <= 0.0:
        return 0
    return int(window / per_chunk)


#: Above this round count a per-round Python loop is pointless; the chain is
#: charged in aggregate (identical totals, pipeline fill approximated by one
#: round's offset per stage).
ROUND_LOOP_LIMIT = 64


def _stream_rounds_batched(gpu: SimulatedGPU, plan, program: VertexProgram,
                           after: float) -> None:
    """The overlapped round loop, scheduled in arrays (lean mode only).

    Bit-identical to the op-by-op loop: the closed-form round split
    (:func:`round_shares`) reproduces ``iter_rounds`` round for round, the
    max/add recurrence below applies the same float operations in the same
    order as the per-op ``Lane.submit`` chain, and the three
    :meth:`EventLog.emit_batch` folds add the same durations per phase and
    lane in the same order.  Only callable when nothing observes per-op
    granularity: lean event log, no span recording, no fault injection.
    """
    spec = gpu.spec
    n = plan.n_rounds
    hi_b, nb_hi, lo_b, _ = round_shares(plan.total_bytes, n)
    hi_e, ne_hi, lo_e, _ = round_shares(plan.n_edges, n)

    # At most two distinct volumes per stage → compute the charged costs
    # once per class and broadcast.
    cb_hi, cb_lo = gpu._scale(hi_b), gpu._scale(lo_b)
    pay_hi, pay_lo = spec.pcie.payload_bytes(cb_hi), spec.pcie.payload_bytes(cb_lo)
    dg_hi, dg_lo = spec.gather.gather_seconds(cb_hi), spec.gather.gather_seconds(cb_lo)
    dx_hi = (spec.pcie.latency if pay_hi else 0.0) + pay_hi / spec.pcie.bandwidth
    dx_lo = (spec.pcie.latency if pay_lo else 0.0) + pay_lo / spec.pcie.bandwidth
    ce_hi, ce_lo = gpu._scale(hi_e), gpu._scale(lo_e)
    dk_hi = spec.kernel.edge_kernel_seconds(ce_hi, atomics=program.atomics)
    dk_lo = spec.kernel.edge_kernel_seconds(ce_lo, atomics=program.atomics)

    # Pipeline recurrence, exactly Lane.submit's start rule per stage:
    # start = max(now, lane busy-until, dependency).  A zero-cost gather
    # (charged size rounds to nothing) emits no event and leaves its lane
    # untouched, like submit's empty-op short-circuit; transfers and
    # kernels always carry counters, so they always emit.
    now = gpu.clock.now
    cpu_b = gpu.cpu.busy_until
    copy_b = gpu.copy.busy_until
    gpu_b = gpu.gpu.busy_until
    g_rows, x_rows, k_rows = [], [], []
    prev = after
    for r in range(n):
        d_g = dg_hi if r < nb_hi else dg_lo
        if d_g > 0.0:
            gs = max(now, cpu_b, prev)
            ge = gs + d_g
            cpu_b = ge
            g_rows.append((gs, ge))
        else:
            ge = max(now, cpu_b, prev)
        xs = max(now, copy_b, ge)
        xe = xs + (dx_hi if r < nb_hi else dx_lo)
        copy_b = xe
        x_rows.append((xs, xe))
        if (hi_e if r < ne_hi else lo_e) > 0:
            ks = max(now, gpu_b, xe)
            ke = ks + (dk_hi if r < ne_hi else dk_lo)
            gpu_b = ke
            k_rows.append((ks, ke, ce_hi if r < ne_hi else ce_lo))
        prev = ge  # next gather may start while this round flies

    gpu.cpu.busy_until = cpu_b
    gpu.copy.busy_until = copy_b
    gpu.gpu.busy_until = gpu_b

    log = gpu.events
    dev = gpu.device_id
    if g_rows:
        g = np.asarray(g_rows)
        with gpu.phase("Tfilling"):
            log.emit_batch("cpu", "gather", "od-gather", g[:, 0], g[:, 1],
                           device=dev)
    x = np.asarray(x_rows)
    payload = np.empty(n, dtype=np.int64)
    payload[:nb_hi] = pay_hi
    payload[nb_hi:] = pay_lo
    with gpu.phase("Ttransfer"):
        log.emit_batch(
            "copy", "h2d", "od-transfer", x[:, 0], x[:, 1],
            counters={"bytes_h2d": payload,
                      "h2d_transfers": np.ones(n, dtype=np.int64)},
            device=dev,
        )
    if k_rows:
        k = np.asarray(k_rows)
        with gpu.phase("Tondemand"):
            log.emit_batch(
                "gpu", "kernel", "od-compute", k[:, 0], k[:, 1],
                counters={"kernel_launches": np.ones(len(k_rows), dtype=np.int64),
                          "edges_processed": k[:, 2].astype(np.int64)},
                device=dev,
            )


def _stream_aggregate(gpu: SimulatedGPU, plan, program: VertexProgram,
                      after: float, sequential: bool) -> None:
    """Charge a many-round gather→transfer→compute chain in O(1) submits.

    Each stage's total equals the sum over rounds (per-round fixed costs
    included, which is the whole penalty of a degenerate on-demand region);
    stage k starts one round after stage k-1, approximating the pipeline
    (or strictly after it, when ``sequential``).  The per-round volumes
    come from the closed-form split, so the charged bytes/edges and the
    burst-rounded PCIe payload are the *exact* sums the per-round loop
    would produce — crossing ROUND_LOOP_LIMIT moves no counter and only
    perturbs durations at float-associativity level (the 64→65 boundary
    parity test pins both).
    """
    spec = gpu.spec
    n = plan.n_rounds
    hi_b, nb_hi, lo_b, nb_lo = round_shares(plan.total_bytes, n)
    hi_e, ne_hi, lo_e, ne_lo = round_shares(plan.n_edges, n)
    cb_hi, cb_lo = gpu._scale(hi_b), gpu._scale(lo_b)
    ce_hi, ce_lo = gpu._scale(hi_e), gpu._scale(lo_e)
    charged_bytes = nb_hi * cb_hi + nb_lo * cb_lo
    charged_edges = ne_hi * ce_hi + ne_lo * ce_lo
    payload = (nb_hi * spec.pcie.payload_bytes(cb_hi)
               + nb_lo * spec.pcie.payload_bytes(cb_lo))
    # Rounds whose edge share is zero launch no kernel in the loop path.
    n_kernels = n if lo_e > 0 else ne_hi
    gather_dur = n * spec.gather.setup + charged_bytes / spec.gather.bandwidth
    xfer_dur = n * spec.pcie.latency + payload / spec.pcie.bandwidth
    kern_dur = (
        n_kernels * spec.kernel.launch_overhead
        + (spec.kernel.atomic_penalty if program.atomics else 1.0)
        * charged_edges / spec.kernel.edge_throughput
    )
    with gpu.phase("Tfilling"):
        t_g = gpu.cpu.submit(gather_dur, "od-gather*", after=after,
                             kind="gather")
    with gpu.phase("Ttransfer"):
        # Split as fixed + variable so chaos-mode retry/degradation applies;
        # summed unchanged this equals xfer_dur bit for bit.
        t_x = gpu.copy.submit_transfer(
            n * spec.pcie.latency, payload / spec.pcie.bandwidth,
            "od-transfer*",
            after=t_g if sequential else (t_g - gather_dur + gather_dur / n),
            kind="h2d",
            counters={"bytes_h2d": payload, "h2d_transfers": n},
            faults=gpu.faults,
        )
    if n_kernels:
        with gpu.phase("Tondemand"):
            gpu.gpu.submit_kernel(
                kern_dur, "od-compute*",
                after=t_x if sequential else (t_x - xfer_dur + xfer_dur / n),
                counters={"kernel_launches": n_kernels,
                          "edges_processed": charged_edges},
                faults=gpu.faults,
            )


def _stream_cap(ondemand_alloc: Allocation, region: StaticRegion) -> int:
    """Effective round size: the on-demand region, floored at one chunk.

    A degenerate (≈0-byte) on-demand region still streams chunk by chunk —
    the pathological regime the right edge of Fig. 10 exposes.
    """
    return max(ondemand_alloc.nbytes, region.chunk_bytes)
