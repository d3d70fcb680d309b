"""Run counters.

Everything the paper's evaluation reports is derived from these counters:
bytes over PCIe (Tables 2 and 5, Figs. 7 and 9), component times
(Fig. 10's Tsr / Tfilling / Ttransfer / Tondemand), GPU idle share
(§2.2's "68 % of GPU time is idle"), and UVM fault counts (§4.4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

__all__ = ["Metrics", "COUNTER_FIELDS"]


@dataclass
class Metrics:
    """Mutable counter bundle owned by a :class:`~repro.gpusim.device.SimulatedGPU`.

    Its fields are the counter set: :data:`COUNTER_FIELDS` is read from
    them, in their order, which is the order a recorded event row lists
    its counters in.
    """

    bytes_h2d: int = 0
    bytes_d2h: int = 0
    h2d_transfers: int = 0
    d2h_transfers: int = 0
    #: Bytes moved by zero-copy direct access over the link (EMOGI path).
    bytes_direct: int = 0
    #: Individual zero-copy load accesses issued over the link.
    direct_accesses: int = 0
    kernel_launches: int = 0
    edges_processed: int = 0
    page_faults: int = 0
    fault_batches: int = 0
    pages_migrated: int = 0
    pages_evicted: int = 0
    #: Failed transfer attempts injected by a fault plan (chaos mode).
    transfer_faults: int = 0
    #: Transfer attempts that had to be repeated before succeeding.
    transfer_retries: int = 0
    #: Kernel launches aborted and re-issued (chaos mode).
    kernel_aborts: int = 0
    #: Virtual seconds burned on failed attempts and backoff delays —
    #: the chaos-mode ``retry`` bucket.
    retry_seconds: float = 0.0
    #: Per-phase accumulated virtual seconds, e.g. ``Tsr``, ``Tfilling``,
    #: ``Ttransfer``, ``Tondemand`` for Fig. 10.
    phase_seconds: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add_phase(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative phase time {seconds} for {phase!r}")
        self.phase_seconds[phase] += seconds

    def as_dict(self) -> Dict[str, float]:
        d: Dict[str, float] = {name: getattr(self, name) for name in COUNTER_FIELDS}
        for phase, sec in sorted(self.phase_seconds.items()):
            d[f"phase:{phase}"] = sec
        return d


#: The counters (every field but ``phase_seconds``), in field order; the
#: event-row fields that fold one-to-one onto them.
COUNTER_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(Metrics) if f.name != "phase_seconds")
