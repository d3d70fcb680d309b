"""Optimization breakdown — the Fig. 8 measurement.

§4.3 decomposes Ascetic's gain over Subway into *Static savings* (data
reuse / avoided transfers from the Static Region, measured with overlap
explicitly disabled) and *Overlapping savings* (the additional gain from
running static compute concurrently with the on-demand gather/transfer).
The same three runs produce both numbers:

    static_saving  = (T_subway − T_ascetic_no_overlap) / T_subway
    overlap_saving = (T_ascetic_no_overlap − T_ascetic) / T_subway
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiments import Workload, run_workload

__all__ = ["OptimizationBreakdown", "measure_breakdown"]


@dataclass(frozen=True)
class OptimizationBreakdown:
    """Fig. 8's bar for one (algorithm, dataset) cell."""

    subway_seconds: float
    no_overlap_seconds: float
    ascetic_seconds: float

    @property
    def static_saving(self) -> float:
        """Execution-time share saved by the Static Region alone."""
        return (self.subway_seconds - self.no_overlap_seconds) / self.subway_seconds

    @property
    def overlap_saving(self) -> float:
        """Additional share saved by compute/transfer overlap (§3.2)."""
        return (self.no_overlap_seconds - self.ascetic_seconds) / self.subway_seconds

    @property
    def total_saving(self) -> float:
        return (self.subway_seconds - self.ascetic_seconds) / self.subway_seconds


def measure_breakdown(workload: Workload) -> OptimizationBreakdown:
    """Run the three configurations of §4.3 on one workload."""
    return OptimizationBreakdown(
        subway_seconds=run_workload(workload, "Subway").elapsed_seconds,
        no_overlap_seconds=run_workload(
            workload, "Ascetic", overlap=False).elapsed_seconds,
        ascetic_seconds=run_workload(workload, "Ascetic").elapsed_seconds,
    )
