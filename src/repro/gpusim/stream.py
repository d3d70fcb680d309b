"""Lanes: overlap-aware scheduling of simulated work.

CUDA overlap comes from streams: the compute engine, the copy engine, and the
host CPU can each be busy simultaneously, and synchronization points decide
who waits for whom.  A :class:`Lane` models one such engine as a
"busy-until" horizon.  Work submitted to a lane starts at the latest of
(current virtual time, the lane's horizon, an explicit dependency time) and
occupies the lane for its duration; synchronizing advances the clock.

This is exactly enough to reproduce the paper's Fig. 5: the Subway baseline
submits GenDataMap → Gather → Transfer → Compute with a sync after each
(sequential), while Ascetic submits Static-Region compute on the GPU lane and
Gather+Transfer on the CPU/copy lanes with no sync in between, so the
timeline overlaps and the total is the max, not the sum.

Every submit is also the single accounting point: when the lane is wired to
an :class:`~repro.gpusim.events.EventLog` it emits exactly one row per
op, carrying the op's counter contribution and the phase/iteration context
active at emission time.  ``Metrics``, spans, and idle accounting are all
folds over those rows.

Chaos mode adds the resilience layer here, where the events are born:
:meth:`Lane.submit_transfer` retries injected transfer failures with
deterministic exponential backoff (failed attempts and backoff delays
occupy the lane and are charged to the ``retry`` bucket), and
:meth:`Lane.submit_kernel` re-launches injected kernel aborts.  Without a
:class:`~repro.gpusim.faults.FaultInjector` both degrade to a single
:meth:`submit`, bit-identical to the fault-free model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.gpusim.clock import VirtualClock
from repro.gpusim.events import EventLog, qualified_lane
from repro.gpusim.faults import FaultInjector, KernelFaultError, TransferFaultError

__all__ = ["Lane"]


@dataclass
class Lane:
    """One serially-ordered execution engine (GPU SMs, copy engine, CPU).

    ``device`` identifies the owning simulated device when several share
    one event log (a :class:`~repro.gpusim.fabric.Fabric`); it rides on
    every emitted event and qualifies the lane's accounting key.  The
    single-device default ``None`` keeps names, keys, and digests exactly
    as before.
    """

    name: str
    clock: VirtualClock
    log: EventLog = None  # type: ignore[assignment]
    busy_until: float = 0.0
    device: Optional[int] = None

    def __post_init__(self) -> None:
        # Standalone lanes get a private lean log; a SimulatedGPU wires all
        # its lanes to the shared per-run log instead.
        if self.log is None:
            self.log = EventLog(record=False)

    @property
    def key(self) -> str:
        """The lane-identity key this lane's time is accounted under."""
        return qualified_lane(self.name, self.device)

    def submit(self, duration: float, label: str = "", after: float = 0.0,
               *, kind: str = "op",
               counters: Optional[Mapping[str, int]] = None,
               extra: Tuple[Tuple[str, float], ...] = ()) -> float:
        """Schedule ``duration`` seconds of work; return its completion time.

        ``after`` is an explicit dependency: the work cannot start before
        that virtual time (use the completion time of work on another lane).
        The clock itself does not move — call :meth:`Lane.sync` (or
        ``clock.advance_to``) at the point the controlling code actually
        waits.

        ``counters`` is the op's contribution to the run metrics (e.g.
        ``{"bytes_h2d": n, "h2d_transfers": 1}``); it rides on the emitted
        event and is folded by the :class:`~repro.gpusim.events.EventLog`.
        ``extra`` carries descriptive (non-folded) key/value pairs for the
        trace export.  Empty ops — zero duration and no counters — are
        short-circuited uniformly: no span, no event, no lane occupancy.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        if duration == 0 and not counters:
            return max(self.clock.now, self.busy_until, after)
        start = max(self.clock.now, self.busy_until, after)
        end = start + duration
        self.busy_until = end
        self.log.emit_op(
            self.name, kind, label, start, end,
            counters=counters, extra=extra, device=self.device,
        )
        return end

    # ------------------------------------------------------------ resilience
    def submit_transfer(self, fixed: float, variable: float, label: str = "",
                        after: float = 0.0, *, kind: str,
                        counters: Optional[Mapping[str, int]] = None,
                        faults: Optional[FaultInjector] = None) -> float:
        """A transfer with bounded retry, backoff, and link degradation.

        ``fixed`` is the per-transfer latency; ``variable`` is the
        bytes-over-bandwidth part, the only part a
        :class:`~repro.gpusim.faults.LinkDegradation` window divides.
        Without an injector this is exactly
        ``submit(fixed + variable, ...)`` — the fault-free model,
        bit for bit.

        Under an injector, each attempt may fail outright or complete with
        a corrupted (CRC-mismatch) payload.  A failed/corrupt attempt
        occupies the lane for its full duration (kind ``<kind>-fault``,
        counted in ``transfer_faults``/``retry_seconds`` — byte counters
        ride only on the eventually useful attempt), then a deterministic
        exponential backoff occupies the lane (kind ``backoff``) before
        the retry.  After ``plan.max_retries`` extra attempts,
        :class:`~repro.gpusim.faults.TransferFaultError` propagates — the
        grid runner degrades the cell / resumes from checkpoint.
        """
        if faults is None or (not faults.plan.affects_transfers
                              and not faults.plan.degradations):
            return self.submit(fixed + variable, label, after=after,
                               kind=kind, counters=counters)
        attempt = 0
        while True:
            start = max(self.clock.now, self.busy_until, after)
            factor, fresh = faults.link_state(start)
            for i, w in fresh:
                self.log.marker("link-degrade", f"window{i}", start,
                                extra=(("factor", w.factor),
                                       ("until", w.end)))
            duration = fixed + variable / factor
            extra: Tuple[Tuple[str, float], ...] = (
                (("link_factor", factor),) if factor < 1.0 else ()
            )
            outcome = faults.transfer_outcome()
            if outcome == "ok":
                merged = dict(counters or {})
                if attempt:
                    merged["transfer_retries"] = attempt
                return self.submit(duration, label, after=after, kind=kind,
                                   counters=merged, extra=extra)
            end = self.submit(
                duration, f"{label}!{outcome}", after=after,
                kind=f"{kind}-fault",
                counters={"transfer_faults": 1, "retry_seconds": duration},
                extra=extra,
            )
            if attempt >= faults.plan.max_retries:
                raise TransferFaultError(
                    f"{kind} {label!r} failed {attempt + 1} attempt(s) "
                    f"(last outcome: {outcome})"
                )
            delay = faults.plan.backoff_seconds(attempt)
            if delay > 0:
                end = self.submit(delay, f"{label}~backoff", after=end,
                                  kind="backoff",
                                  counters={"retry_seconds": delay})
            after = end
            attempt += 1

    def submit_kernel(self, duration: float, label: str = "",
                      after: float = 0.0, *,
                      counters: Optional[Mapping[str, int]] = None,
                      faults: Optional[FaultInjector] = None) -> float:
        """A kernel launch with injected slowdown/abort handling.

        Without an injector this is ``submit(duration, kind="kernel")``
        exactly.  An injected *abort* burns ``kernel_abort_fraction`` of
        the launch (kind ``kernel-abort``, counted in ``kernel_aborts`` /
        ``retry_seconds``), backs off, and re-launches — bounded by
        ``plan.max_retries``, then
        :class:`~repro.gpusim.faults.KernelFaultError`.  An injected
        *slowdown* stretches the launch by ``kernel_slowdown_factor``
        (clock throttling); the event notes the factor but the work
        completes normally.
        """
        if faults is None or not faults.plan.affects_kernels:
            return self.submit(duration, label, after=after, kind="kernel",
                               counters=counters)
        attempt = 0
        while True:
            outcome, factor = faults.kernel_outcome()
            if outcome == "abort":
                part = duration * factor
                end = self.submit(
                    part, f"{label}!abort", after=after, kind="kernel-abort",
                    counters={"kernel_aborts": 1, "retry_seconds": part},
                )
                if attempt >= faults.plan.max_retries:
                    raise KernelFaultError(
                        f"kernel {label!r} aborted {attempt + 1} time(s)"
                    )
                delay = faults.plan.backoff_seconds(attempt)
                if delay > 0:
                    end = self.submit(delay, f"{label}~backoff", after=end,
                                      kind="backoff",
                                      counters={"retry_seconds": delay})
                after = end
                attempt += 1
                continue
            extra: Tuple[Tuple[str, float], ...] = (
                (("slowdown", factor),) if outcome == "slow" else ()
            )
            return self.submit(duration * (factor if outcome == "slow" else 1.0),
                               label, after=after, kind="kernel",
                               counters=counters, extra=extra)

