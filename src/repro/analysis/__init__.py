"""Analysis tooling that regenerates the paper's measurements.

* :mod:`repro.analysis.traces` — chunk-granularity access traces (Fig. 2);
* :mod:`repro.analysis.active_edges` — per-iteration active-edge fractions
  (Table 1);
* :mod:`repro.analysis.memory_usage` — per-iteration GPU memory demand of
  the fine-grained scheme (Table 2) and the §2.2 idle measurement;
* :mod:`repro.analysis.breakdown` — Static vs Overlapping savings (Fig. 8);
* :mod:`repro.analysis.reuse` — reuse-distance / LRU-vs-pinned analysis
  (the §1–2 motivation, quantified);
* :mod:`repro.analysis.report` — fixed-width tables, normalization,
  geomean, ASCII sparklines for the figure benches.
"""

from repro.analysis.traces import (
    AccessTrace,
    TraceSummary,
    trace_uvm_run,
    chrome_trace_events,
    to_chrome_trace,
    save_chrome_trace,
)
from repro.analysis.active_edges import active_edge_fractions, table1_row
from repro.analysis.memory_usage import subway_memory_usage, subway_idle_fraction
from repro.analysis.breakdown import OptimizationBreakdown, measure_breakdown
from repro.analysis.report import format_table, geomean, sparkline
from repro.analysis.reuse import reuse_distances, lru_hit_rate_curve, pinned_hit_rate

__all__ = [
    "AccessTrace",
    "TraceSummary",
    "trace_uvm_run",
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
    "active_edge_fractions",
    "table1_row",
    "subway_memory_usage",
    "subway_idle_fraction",
    "OptimizationBreakdown",
    "measure_breakdown",
    "format_table",
    "geomean",
    "sparkline",
    "reuse_distances",
    "lru_hit_rate_curve",
    "pinned_hit_rate",
]
