"""GPU memory partitioning — §3.3, Equations 1–3.

With ``K`` the fraction of edges active per iteration, ``D`` the dataset
size and ``M`` the GPU memory, the on-demand load per iteration is
``(D − M_static) · K`` on average; requiring it to fit beside the static
region (Eq. 1) and maximizing the static share gives Eq. 2:

    R = (1 − K · D / M) / (1 − K)

The paper defaults ``K = 10 %`` (Table 1: most algorithms are around or
below that, PR excepted) and clips R into [0, 1]: when the dataset fits
outright, everything is static; when ``K · D ≥ M``, no ratio satisfies
Eq. 1 and the on-demand data must be processed in rounds anyway, so R
clips to 0.

Adaptive re-partitioning (Eq. 3): after the data map is generated, if the
measured on-demand volume overflows its region while the static region is
under-utilized (``V_static / M_static < 0.5 · V / D``), the static region
shrinks by ``M_static · V / D``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_K", "static_ratio", "region_bytes", "RepartitionDecision",
           "check_repartition"]

#: The paper's default K: 10 % of the edges active per iteration.
DEFAULT_K = 0.10


def static_ratio(k: float, dataset_bytes: int, memory_bytes: int) -> float:
    """Eq. 2, clipped to ``[0, 1]``.

    Parameters mirror the paper: ``k`` = expected active-edge fraction per
    iteration, ``dataset_bytes`` = D, ``memory_bytes`` = M (the memory
    available for the two regions).
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("K must be in [0, 1)")
    if dataset_bytes < 0 or memory_bytes <= 0:
        raise ValueError("sizes must be positive")
    if dataset_bytes <= memory_bytes:
        # Whole dataset fits: Eq. 1 is slack; keep it all static.
        return 1.0
    r = (1.0 - k * dataset_bytes / memory_bytes) / (1.0 - k)
    return min(max(r, 0.0), 1.0)


def region_bytes(memory_bytes: int, ratio: float, align: int = 1) -> tuple[int, int]:
    """Split ``memory_bytes`` into (static, on-demand), static aligned down.

    ``align`` is the chunk size — the static region holds whole chunks.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    if align <= 0:
        raise ValueError("align must be positive")
    static = int(memory_bytes * ratio) // align * align
    return static, memory_bytes - static


@dataclass(frozen=True)
class RepartitionDecision:
    """Outcome of the §3.3 adaptive check."""

    repartition: bool
    shrink_bytes: int = 0


def check_repartition(
    v_ondemand: int,
    ondemand_capacity: int,
    v_static: int,
    static_capacity: int,
    v_total: int,
    dataset_bytes: int,
) -> RepartitionDecision:
    """The §3.3 trigger, verbatim.

    Repartition iff the on-demand volume overflows its region *and*
    ``V_static / M_static < 0.5 · V / D`` (static under-utilized while
    overall demand is high); then shrink the static region by
    ``M_static · V / D`` (Eq. 3).
    """
    if min(v_ondemand, v_static, v_total) < 0 or dataset_bytes <= 0:
        raise ValueError("volumes must be non-negative, dataset positive")
    if static_capacity <= 0 or ondemand_capacity < 0:
        return RepartitionDecision(False)
    if v_ondemand <= ondemand_capacity:
        return RepartitionDecision(False)
    if v_static / static_capacity >= 0.5 * v_total / dataset_bytes:
        return RepartitionDecision(False)
    shrink = int(static_capacity * v_total / dataset_bytes)
    shrink = min(shrink, static_capacity)
    return RepartitionDecision(True, shrink_bytes=shrink)
