"""Virtual time.

All engine timing in this repo is *virtual*: the simulator adds up analytic
costs (bytes / bandwidth, edges / throughput, per-fault latencies) on a
monotonic clock.  Determinism matters more than resolution — two runs of the
same engine on the same graph produce bit-identical timelines, which is what
lets the benchmarks reproduce the paper's *ratios* without real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VirtualClock"]


@dataclass
class VirtualClock:
    """A monotonic virtual clock; what happened *when* is the event log's job."""

    now: float = 0.0

    def advance_to(self, t: float) -> float:
        """Move time forward to ``t`` if ``t`` is in the future (else no-op)."""
        if t > self.now:
            self.now = t
        return self.now
