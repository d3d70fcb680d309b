"""Report formatting shared by the benchmark harness.

Every bench prints the same artifacts the paper does — fixed-width tables
for Tables 1/2/4/5 and ASCII series for the figures — so a run's stdout
can be compared against the paper side by side.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.gpusim.events import ordered_sum

__all__ = ["format_table", "geomean", "sparkline", "human_bytes"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width table (right-aligned numbers, left-aligned text)."""
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _cell(c: object) -> str:
    if isinstance(c, float):
        if c != c:  # NaN
            return "-"
        if abs(c) >= 1000 or (abs(c) < 0.01 and c != 0):
            return f"{c:.3g}"
        return f"{c:.2f}"
    return str(c)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic for speedups)."""
    vals = [v for v in values]
    if not vals:
        return float("nan")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(ordered_sum(math.log(v) for v in vals) / len(vals))


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line ASCII rendering of a series (figure benches)."""
    vals = list(values)
    if not vals:
        return ""
    if len(vals) > width:
        step = len(vals) / width
        vals = [vals[int(i * step)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    return "".join(_BLOCKS[int((v - lo) / span * (len(_BLOCKS) - 1))] for v in vals)


def human_bytes(n: float) -> str:
    """1234567890.0 → '1.15GB' (paper-style magnitudes)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024 or unit == "TB":
            return f"{n:.2f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.2f}TB"
