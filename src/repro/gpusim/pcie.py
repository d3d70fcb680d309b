"""PCIe link model.

Transfers cost a fixed per-transfer latency (driver + DMA setup) plus bytes
over an effective bandwidth, with payloads rounded up to the burst
granularity.  §3.4 picks 16 KB chunks explicitly because they are "amenable
to the PCI-e burst transfer mechanism" — the burst rounding here is what
makes that choice matter in the model.

The link also models *zero-copy direct access* (EMOGI / HyTGraph): the GPU
reads pinned host memory through individual load instructions instead of
staging a DMA copy.  Each access pays a tiny per-access latency and moves a
128-byte sector — no 10 µs driver setup, no 16 KB burst amplification — but
the sustained rate is roughly half of a bulk copy.  That asymmetry is the
whole point: direct access wins for small, sparse, one-touch footprints;
explicit migration wins once a chunk's bytes are reused.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PCIeLink"]


@dataclass(frozen=True)
class PCIeLink:
    """Cost model of the host↔device interconnect.

    Parameters
    ----------
    bandwidth:
        Effective bytes/second of a large streaming copy (PCIe 3.0 x16
        sustains ~12 GB/s of its 15.75 GB/s peak).
    latency:
        Seconds of fixed overhead per explicit transfer.
    burst:
        Bytes of DMA burst granularity; payloads round up to it.
    direct_bandwidth:
        Effective bytes/second of zero-copy loads over the link.  Scattered
        sector-sized reads sustain roughly half of bulk-copy bandwidth.
    direct_latency:
        Seconds of per-access overhead for one zero-copy load (issue +
        link round-trip amortized over the warp's coalesced accesses).
    sector:
        Bytes one zero-copy access moves (the PCIe read-completion /
        cache-line sector); direct payloads round up to it.
    """

    bandwidth: float = 12.0e9
    latency: float = 10.0e-6
    burst: int = 16 * 1024
    direct_bandwidth: float = 6.0e9
    direct_latency: float = 15.0e-9
    sector: int = 128

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0 or self.burst <= 0:
            raise ValueError("invalid PCIe parameters")
        if (self.direct_bandwidth <= 0 or self.direct_latency < 0
                or self.sector <= 0):
            raise ValueError("invalid PCIe direct-access parameters")

    def payload_bytes(self, nbytes: int) -> int:
        """Bytes actually moved after burst rounding."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        bursts = -(-nbytes // self.burst)  # ceil division
        return bursts * self.burst

    def copy_cost(self, payload, n: int = 1):
        """``(fixed, variable)`` seconds of ``n`` explicit copies of ``payload``.

        ``payload`` is the bytes that fly, already burst-rounded by the
        caller (:meth:`payload_bytes`); scalars or NumPy arrays.  Each copy
        pays one latency; the bytes stream at bulk bandwidth.
        """
        return n * self.latency, payload / self.bandwidth

    # ------------------------------------------------------ zero-copy path
    def direct_payload_bytes(self, nbytes: int) -> int:
        """Bytes actually moved by zero-copy loads after sector rounding.

        Deliberately *not* burst-rounded: sector granularity is what lets
        direct access beat migration on sparse footprints.
        """
        if nbytes < 0:
            raise ValueError("negative direct-access size")
        sectors = -(-nbytes // self.sector)  # ceil division
        return sectors * self.sector

    def direct_cost(self, payload, n_accesses):
        """``(fixed, variable)`` seconds of ``n_accesses`` zero-copy loads.

        ``payload`` is sector-rounded by the caller
        (:meth:`direct_payload_bytes`); scalars or NumPy arrays.  With one
        access per sector this is cheaper than :meth:`copy_cost` below a
        crossover footprint of roughly ``latency / (1/direct_bandwidth +
        direct_latency/sector - 1/bandwidth)`` bytes (~50 KB at the
        defaults) — the EMOGI regime — and dearer above it, which is what a
        hybrid policy exploits.
        """
        return n_accesses * self.direct_latency, payload / self.direct_bandwidth
