"""Kernel cost model.

Graph kernels on GPUs are memory-bound: time scales with edges touched (the
frontier expansion) plus a vertex-array scan term (bitmap/map generation,
value updates) plus a fixed launch overhead.  The constants approximate a
P100 running a push-style vertex-centric kernel; their absolute values only
set the compute:transfer balance — the quantity the paper's overlap analysis
(Fig. 5, Fig. 10) depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelModel"]


@dataclass(frozen=True)
class KernelModel:
    """Analytic GPU kernel timing.

    Parameters
    ----------
    edge_throughput:
        Edges processed per second by a traversal/relaxation kernel.
        P100-class push frameworks sustain on the order of 1–3 billion
        traversed edges per second out of device memory.
    vertex_scan_throughput:
        Vertices per second for full-array scans (map generation, bitmap
        AND/XOR, value init) — these stream 4–8 B/vertex at near memory
        bandwidth.
    launch_overhead:
        Seconds per kernel launch.
    atomic_penalty:
        Multiplier ≥ 1 applied to edge work for kernels dominated by atomic
        scatter updates (push PR/SSSP pay contention).
    """

    edge_throughput: float = 2.0e9
    vertex_scan_throughput: float = 50.0e9
    launch_overhead: float = 5.0e-6
    atomic_penalty: float = 1.5

    def __post_init__(self) -> None:
        if min(self.edge_throughput, self.vertex_scan_throughput) <= 0:
            raise ValueError("throughputs must be positive")
        if self.launch_overhead < 0 or self.atomic_penalty < 1.0:
            raise ValueError("invalid kernel overheads")

    def edge_cost(self, n_edges, atomics: bool, n_launches: int = 1):
        """``(fixed, variable)`` seconds of ``n_launches`` traversal kernels
        processing ``n_edges`` edges between them (scalars or arrays)."""
        penalty = self.atomic_penalty if atomics else 1.0
        return (n_launches * self.launch_overhead,
                penalty * n_edges / self.edge_throughput)

    def scan_cost(self, n_vertices, passes: int):
        """``(fixed, variable)`` seconds of one kernel making ``passes`` full
        scans over ``n_vertices`` state words."""
        return (self.launch_overhead,
                passes * n_vertices / self.vertex_scan_throughput)
