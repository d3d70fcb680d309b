"""Host-side cost model.

Subway-style engines (and Ascetic's On-demand Engine) have the CPU gather
the active edges into a compact pinned buffer before the PCIe copy (§2.2
step (b)).  That gather is a multi-threaded strided read of main memory;
its throughput — not PCIe — is often the bottleneck, which is why the paper's
Overlapping savings matter (§4.3 reports a CC/FK gather of 3.417 s, 40 % of
total time).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HostGather"]


@dataclass(frozen=True)
class HostGather:
    """Analytic cost of the CPU filling a pinned staging buffer.

    Parameters
    ----------
    bandwidth:
        Effective bytes/second of the multi-threaded gather.  Ten Xeon
        Silver cores streaming CSR ranges sustain most of one memory
        channel's bandwidth (the paper's §4.3 CC/FK gather time of ~3.4 s
        over ~30 GB of gathered data pins this near 8 GB/s).
    setup:
        Fixed seconds per gather round (thread wake-up, request list walk).
    """

    bandwidth: float = 8.0e9
    setup: float = 20.0e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.setup < 0:
            raise ValueError("invalid host gather parameters")

    def gather_cost(self, nbytes, n: int = 1):
        """``(fixed, variable)`` seconds of ``n`` gather rounds assembling
        ``nbytes`` into the staging buffer (scalars or arrays)."""
        return n * self.setup, nbytes / self.bandwidth
