"""Parameter sweeps behind Figures 10 and 11.

* :func:`sweep_static_ratio` — Fig. 10: force the Static Region share from
  0 to 1 and record total time plus the four component timers
  (Tsr / Tfilling / Ttransfer / Tondemand), with the Subway baseline and
  the Eq. 2 pick marked;
* :func:`sweep_gpu_memory` — Fig. 11 left: shrink the GPU under a fixed
  dataset and compare Ascetic vs Subway;
* :func:`sweep_rmat_sizes` — Fig. 11 right: grow an RMAT dataset past the
  GPU and compare Ascetic vs Subway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.ratio import DEFAULT_K, static_ratio
from repro.engines.base import RunResult
from repro.graph.datasets import rmat_dataset
from repro.harness.experiments import Workload, make_workload, run_workload

__all__ = [
    "RatioPoint",
    "sweep_static_ratio",
    "MemoryPoint",
    "sweep_gpu_memory",
    "sweep_rmat_sizes",
]

#: Fig. 11 right's fixed card, at paper scale (the 16 GB class).
RMAT_GPU_PAPER_BYTES = 16 * 10**9


@dataclass(frozen=True)
class RatioPoint:
    """One x-position of Fig. 10."""

    ratio: float
    total_seconds: float
    t_sr: float
    t_filling: float
    t_transfer: float
    t_ondemand: float


def _ratio_point(ratio: float, res: RunResult) -> RatioPoint:
    ph = res.metrics.phase_seconds
    return RatioPoint(
        ratio=float(ratio),
        total_seconds=res.elapsed_seconds,
        t_sr=ph.get("Tsr", 0.0),
        t_filling=ph.get("Tfilling", 0.0),
        t_transfer=ph.get("Ttransfer", 0.0),
        t_ondemand=ph.get("Tondemand", 0.0),
    )


def sweep_static_ratio(
    workload: Workload,
    ratios: Sequence[float],
    jobs: int = 1,
    cache=None,
) -> tuple[List[RatioPoint], float, float]:
    """Fig. 10: run Ascetic at each forced Static Region ratio.

    Returns (points, subway_seconds, eq2_ratio) — the horizontal Subway
    line and the vertical Eq. 2 marker (at the default K) of the paper's
    plots.  The ratio points and the Subway baseline are one
    :func:`repro.runner.run_grid` batch of ``jobs`` workers, so
    ``workload`` must come from
    :func:`~repro.harness.experiments.make_workload` on a named dataset.
    """
    from repro.runner import RunSpec, run_grid

    common = dict(
        dataset=workload.dataset.abbr,
        algorithm=workload.algorithm,
        scale=workload.scale,
        memory_bytes=workload.spec.memory_bytes,
    )
    # Fig. 10 isolates the ratio: adaptive repartitioning would move the
    # forced ratio mid-run, so it is pinned off for every point.
    specs = [
        RunSpec(engine="Ascetic", **common,
                engine_opts={"forced_ratio": float(r), "adaptive": False})
        for r in ratios
    ]
    specs.append(RunSpec(engine="Subway", **common))
    report = run_grid(specs, jobs=jobs, cache=cache)
    failed = [c for c in report.cells if not c.ok]
    if failed:
        raise RuntimeError(
            "ratio sweep cells failed: "
            + "; ".join(f"{c.spec.label()}: {c.error}" for c in failed)
        )
    points = [_ratio_point(r, c.result) for r, c in zip(ratios, report.cells)]
    vertex_state = workload.graph.vertex_state_bytes
    eq2 = static_ratio(
        DEFAULT_K,
        workload.graph.edge_array_bytes,
        max(workload.spec.memory_bytes - vertex_state, 1),
    )
    return points, report.cells[-1].result.elapsed_seconds, eq2


@dataclass(frozen=True)
class MemoryPoint:
    """One x-position of Fig. 11 (either sweep)."""

    label: str
    memory_fraction: float
    ascetic_seconds: float
    subway_seconds: float

    @property
    def speedup(self) -> float:
        return self.subway_seconds / self.ascetic_seconds


def sweep_gpu_memory(
    abbr: str,
    algorithm: str,
    memory_fractions: Sequence[float],
    scale: float,
) -> List[MemoryPoint]:
    """Fig. 11 left: Ascetic vs Subway as GPU memory shrinks.

    ``memory_fractions`` are GPU-capacity : dataset-size ratios (the paper
    sweeps 5–13 GB against a 15 GB Friendster, i.e. 0.33–0.87).
    """
    base = make_workload(abbr, algorithm, scale=scale)
    points: List[MemoryPoint] = []
    for frac in memory_fractions:
        mem = int(base.graph.dataset_bytes * frac)
        w = make_workload(abbr, algorithm, scale=scale, memory_bytes=mem)
        asc = run_workload(w, "Ascetic")
        sub = run_workload(w, "Subway")
        points.append(
            MemoryPoint(
                label=f"{frac:.0%}",
                memory_fraction=float(frac),
                ascetic_seconds=asc.elapsed_seconds,
                subway_seconds=sub.elapsed_seconds,
            )
        )
    return points


def sweep_rmat_sizes(
    algorithm: str,
    paper_edge_counts: Sequence[float],
    scale: float,
) -> List[MemoryPoint]:
    """Fig. 11 right: growing RMAT datasets against a fixed GPU.

    The paper reserves a fixed card (:data:`RMAT_GPU_PAPER_BYTES`) and
    grows the dataset to 2.5–12 B edges; the interesting regime is
    static-region : dataset down to ~20 %.
    """
    points: List[MemoryPoint] = []
    for paper_edges in paper_edge_counts:
        ds = rmat_dataset(paper_edges, scale=scale)
        mem = int(RMAT_GPU_PAPER_BYTES * scale)
        w = make_workload(ds.abbr, algorithm, scale=scale, memory_bytes=mem, dataset=ds)
        asc = run_workload(w, "Ascetic")
        sub = run_workload(w, "Subway")
        points.append(
            MemoryPoint(
                label=ds.abbr,
                memory_fraction=mem / max(ds.graph.dataset_bytes, 1),
                ascetic_seconds=asc.elapsed_seconds,
                subway_seconds=sub.elapsed_seconds,
            )
        )
    return points
