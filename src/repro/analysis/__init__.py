"""Analysis tooling that regenerates the paper's measurements.

The package reads runs; it runs no engine of its own.  A helper takes a
:class:`~repro.engines.base.RunResult`, its recorded event log, or a graph
and a vertex program.  Table 2 and the §2.2 idle claim need no helper: they
are a Subway run's ``extra["avg_iteration_bytes"]`` and
``gpu_idle_fraction``.

* :mod:`repro.analysis.traces` — chunk-granularity access traces folded
  from a recorded UVM run (Fig. 2), and the Chrome-trace export of any
  recorded log;
* :mod:`repro.analysis.active_edges` — per-iteration active-edge fractions
  (Table 1);
* :mod:`repro.analysis.breakdown` — Static vs Overlapping savings (Fig. 8);
* :mod:`repro.analysis.reuse` — reuse-distance / LRU-vs-pinned analysis
  (the §1–2 motivation, quantified);
* :mod:`repro.analysis.report` — fixed-width tables, normalization,
  geomean, ASCII sparklines for the figure benches.
"""

from repro.analysis.traces import (
    AccessTrace,
    TraceSummary,
    fold_access_trace,
    chrome_trace_events,
    to_chrome_trace,
    save_chrome_trace,
)
from repro.analysis.active_edges import active_edge_fractions, table1_row
from repro.analysis.breakdown import OptimizationBreakdown
from repro.analysis.report import format_table, geomean, sparkline
from repro.analysis.reuse import reuse_distances, lru_hit_rate_curve, pinned_hit_rate

__all__ = [
    "AccessTrace",
    "TraceSummary",
    "fold_access_trace",
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
    "active_edge_fractions",
    "table1_row",
    "OptimizationBreakdown",
    "format_table",
    "geomean",
    "sparkline",
    "reuse_distances",
    "lru_hit_rate_curve",
    "pinned_hit_rate",
]
