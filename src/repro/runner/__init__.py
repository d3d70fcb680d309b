"""Parallel grid runner with a persistent result cache.

The experiment-level analogue of the paper's cross-iteration reuse: grid
cells that were computed in an earlier session are *replayed* from a
content-addressed on-disk cache, and the cells that do need computing fan
out across worker processes with per-cell fault isolation.

* :class:`~repro.runner.spec.RunSpec` — the immutable request object for
  one cell (and its cache key);
* :class:`~repro.runner.cache.ResultCache` — the spec → result store with
  hit/miss/invalidation counters;
* :func:`~repro.runner.executor.run_grid` — the executor;
* :func:`~repro.runner.executor.grid_specs` — cross-product helper.

Exposed on the CLI as ``repro grid``; ``benchmarks/conftest.py`` runs the
whole figure suite as one ``run_grid`` call.
"""

from repro.runner.spec import RunSpec
from repro.runner.cache import CacheStats, ResultCache, code_version
from repro.runner.executor import CellOutcome, GridReport, grid_specs, run_grid

__all__ = [
    "RunSpec",
    "CacheStats",
    "ResultCache",
    "code_version",
    "CellOutcome",
    "GridReport",
    "grid_specs",
    "run_grid",
]
