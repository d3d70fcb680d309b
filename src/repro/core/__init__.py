"""Ascetic — the paper's contribution (§3).

GPU memory is partitioned into a **Static Region** (a fixed, chunk-granular
slice of the edge array that persists across iterations) and an **On-demand
Region** (per-iteration active edges not covered by the static slice,
gathered Subway-style by the CPU-side On-demand Engine).  The GPU-side
Manager computes on static-resident edges *while* the CPU gathers and
transfers the on-demand slice (§3.2, Fig. 5), the split ratio follows
Eq. 2 with adaptive re-partitioning per Eq. 3 (§3.3), and a hotness-table
server refreshes stale chunks during the on-demand compute window (§3.4).

Module map:

* :mod:`repro.core.ratio` — Eq. 1–3;
* :mod:`repro.core.static_region` — chunk table + fill policies;
* :mod:`repro.core.replacement` — hotness table and swap planning (§3.4);
* :mod:`repro.core.ondemand` — CPU-side gather planning;
* :mod:`repro.core.manager` — the overlapped per-iteration schedule (§3.2);
* :mod:`repro.core.ascetic` — the engine facade.
"""

from repro.core.ascetic import AsceticEngine
from repro.core.ratio import static_ratio, region_bytes, RepartitionDecision, check_repartition
from repro.core.static_region import StaticRegion
from repro.core.replacement import HotnessTable, SwapPlan
from repro.core.ondemand import OnDemandPlan, plan_ondemand

__all__ = [
    "AsceticEngine",
    "static_ratio",
    "region_bytes",
    "RepartitionDecision",
    "check_repartition",
    "StaticRegion",
    "HotnessTable",
    "SwapPlan",
    "OnDemandPlan",
    "plan_ondemand",
]
