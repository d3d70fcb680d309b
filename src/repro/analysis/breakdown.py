"""Optimization breakdown — the Fig. 8 measurement.

§4.3 decomposes Ascetic's gain over Subway into *Static savings* (data
reuse / avoided transfers from the Static Region, measured with overlap
explicitly disabled) and *Overlapping savings* (the additional gain from
running static compute concurrently with the on-demand gather/transfer).
Three runs of one workload produce both numbers:

    static_saving  = (T_subway − T_ascetic_no_overlap) / T_subway
    overlap_saving = (T_ascetic_no_overlap − T_ascetic) / T_subway

The runs are grid cells (Ascetic's ``overlap: False`` is an engine option);
:class:`OptimizationBreakdown` folds their results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import RunResult

__all__ = ["OptimizationBreakdown"]


@dataclass(frozen=True)
class OptimizationBreakdown:
    """Fig. 8's bar for one (algorithm, dataset) cell."""

    subway: RunResult
    #: Ascetic with the §3.2 overlap disabled.
    no_overlap: RunResult
    ascetic: RunResult

    @property
    def static_saving(self) -> float:
        """Execution-time share saved by the Static Region alone."""
        t = self.subway.elapsed_seconds
        return (t - self.no_overlap.elapsed_seconds) / t

    @property
    def overlap_saving(self) -> float:
        """Additional share saved by compute/transfer overlap (§3.2)."""
        return ((self.no_overlap.elapsed_seconds - self.ascetic.elapsed_seconds)
                / self.subway.elapsed_seconds)

    @property
    def total_saving(self) -> float:
        t = self.subway.elapsed_seconds
        return (t - self.ascetic.elapsed_seconds) / t
