"""The one gather → transfer → compute round chain (§3.1–§3.2, Fig. 5).

Every on-demand schedule in the repo — Subway's subgraph rounds, Ascetic's
On-demand Engine, Hybrid's gather path — is the same chain: the CPU gathers
a round's bytes into the staging buffer, the copy engine ships them, the
GPU computes on them.  Two dependency rules exist: *pipelined* (round
``r+1`` may gather while round ``r`` flies and computes — Fig. 5 bottom) and
*sequential* (the controlling thread waits after every op — Fig. 5 top).
:func:`stream_rounds` is the only place that chain is written, so every
engine is charged by it identically.
"""

from __future__ import annotations

from typing import Tuple

from repro.gpusim.device import SimulatedGPU

__all__ = ["ROUND_LOOP_LIMIT", "round_shares", "stream_rounds"]

#: Above this round count the chain is charged in aggregate instead of op by
#: op: the right edge of Fig. 10, where a ≈0-byte on-demand region means
#: 10⁵–10⁶ rounds, only terminates that way.
ROUND_LOOP_LIMIT = 64


def round_shares(total: int, n_rounds: int) -> Tuple[int, int, int, int]:
    """Closed form of the iterative ``ceil(left / rounds_left)`` split.

    Splitting ``total`` over ``n_rounds`` by repeatedly taking
    ``ceil(remaining / rounds_remaining)`` gives exactly ``total % n``
    rounds of ``ceil(total/n)`` followed by the rest at ``total // n``
    (each ceil take keeps the remainder's residue class; once the residue
    hits zero the division is exact).  Returned as ``(hi, n_hi, lo,
    n_lo)`` with the ``hi`` rounds first.
    """
    if n_rounds <= 0:
        return 0, 0, 0, 0
    lo, rem = divmod(total, n_rounds)
    hi = lo + 1 if rem else lo
    return hi, rem, lo, n_rounds - rem


def stream_rounds(gpu: SimulatedGPU, total_bytes: int, n_edges: int,
                  n_rounds: int, *, atomics: bool, after: float = 0.0,
                  sequential: bool = False,
                  labels: Tuple[str, str, str] = ("od-gather", "od-transfer",
                                                  "od-compute"),
                  compute_phase: str = "Tondemand") -> None:
    """Charge ``n_rounds`` gather → transfer → compute rounds to ``gpu``.

    ``total_bytes`` and ``n_edges`` are split over the rounds as evenly as
    integer math allows (:func:`round_shares`).  The first gather starts no
    earlier than ``after``.  Pipelined (the default), a round's transfer
    waits for its gather and its compute for its transfer, while the next
    gather waits only for the previous *gather*; ``sequential`` syncs the
    clock after every op, so nothing overlaps.  ``labels`` name the three
    ops and ``compute_phase`` the compute's phase (gather and transfer are
    always ``Tfilling`` / ``Ttransfer``).

    Up to :data:`ROUND_LOOP_LIMIT` rounds go through the device facade op
    by op, so recording, fault injection, retries and empty-op
    short-circuits behave exactly as for any other op.  Beyond it, each
    stage is charged once with the exact sum over rounds (per-round fixed
    costs included — the whole penalty of a degenerate on-demand region),
    and stage k starts one round after stage k-1, approximating the
    pipeline (or strictly after it, when ``sequential``): crossing the
    limit moves no counter and perturbs durations only at
    float-associativity level.
    """
    gather, transfer, compute = labels
    hi_b, nb_hi, lo_b, nb_lo = round_shares(total_bytes, n_rounds)
    hi_e, ne_hi, lo_e, ne_lo = round_shares(n_edges, n_rounds)

    if n_rounds <= ROUND_LOOP_LIMIT:
        prev = after
        for r in range(n_rounds):
            r_bytes = hi_b if r < nb_hi else lo_b
            with gpu.phase("Tfilling"):
                t_gather = gpu.cpu_gather(r_bytes, label=gather, after=prev)
            if sequential:
                gpu.sync(t_gather)
            with gpu.phase("Ttransfer"):
                t = gpu.h2d(r_bytes, label=transfer, after=t_gather)
            if sequential:
                gpu.sync(t)
            with gpu.phase(compute_phase):
                t = gpu.edge_kernel(hi_e if r < ne_hi else lo_e, label=compute,
                                    atomics=atomics, after=t)
            if sequential:
                gpu.sync(t)
            prev = t_gather  # next gather may start while this round flies
        return

    spec = gpu.spec
    n = n_rounds
    cb_hi, cb_lo = gpu._scale(hi_b), gpu._scale(lo_b)
    ce_hi, ce_lo = gpu._scale(hi_e), gpu._scale(lo_e)
    charged_bytes = nb_hi * cb_hi + nb_lo * cb_lo
    charged_edges = ne_hi * ce_hi + ne_lo * ce_lo
    payload = (nb_hi * spec.pcie.payload_bytes(cb_hi)
               + nb_lo * spec.pcie.payload_bytes(cb_lo))
    # Rounds whose edge share is zero launch no kernel in the loop.
    n_kernels = n if lo_e > 0 else ne_hi
    gather_dur = sum(spec.gather.gather_cost(charged_bytes, n))
    x_fixed, x_variable = spec.pcie.copy_cost(payload, n)
    xfer_dur = x_fixed + x_variable
    kern_dur = sum(spec.kernel.edge_cost(charged_edges, atomics, n_kernels))
    with gpu.phase("Tfilling"):
        t_g = gpu.cpu.submit(gather_dur, gather + "*", after=after,
                             kind="gather")
    with gpu.phase("Ttransfer"):
        t_x = gpu.copy.submit_transfer(
            x_fixed, x_variable,
            transfer + "*",
            after=t_g if sequential else (t_g - gather_dur + gather_dur / n),
            kind="h2d",
            counters={"bytes_h2d": payload, "h2d_transfers": n},
            faults=gpu.faults,
        )
    if n_kernels:
        with gpu.phase(compute_phase):
            gpu.gpu.submit_kernel(
                kern_dur, compute + "*",
                after=t_x if sequential else (t_x - xfer_dur + xfer_dur / n),
                counters={"kernel_launches": n_kernels,
                          "edges_processed": charged_edges},
                faults=gpu.faults,
            )
