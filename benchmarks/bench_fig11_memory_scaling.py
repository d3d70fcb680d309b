"""Figure 11 — robustness to shrinking GPU memory and growing datasets.

Paper, left half: with the 15 GB Friendster dataset and the card swept
5–13 GB, Ascetic's edge over Subway shrinks as memory shrinks but is still
+24.6 % at 35 % memory:dataset.  Right half: RMAT datasets grown to
2.5–12 B edges against a fixed card keep Ascetic ≥ 1.5× even when the
static region is only ~20 % of the dataset.
"""

from repro.analysis.report import format_table
from repro.harness.experiments import make_workload
from repro.runner import RunSpec

from conftest import report

MEMORY_FRACTIONS = [0.35, 0.5, 0.65, 0.8, 0.9]
RMAT_EDGES = [2.5e9, 5e9, 8e9, 12e9]
RMAT_SCALE = 1e-4  # the 12 B-edge point stays tractable
#: Fig. 11 right's fixed card, the 16 GB class, scaled like the data.
RMAT_MEMORY = int(16 * 10**9 * RMAT_SCALE)

# Left: PR on FK with the card at each fraction of the dataset (the paper
# sweeps 5–13 GB against a 15 GB Friendster, i.e. 0.33–0.87).
FK_BYTES = make_workload("FK", "PR").graph.dataset_bytes
LEFT = {(frac, engine): RunSpec("FK", "PR", engine,
                                memory_bytes=int(FK_BYTES * frac))
        for frac in MEMORY_FRACTIONS for engine in ("Ascetic", "Subway")}
# Right: PR on growing RMAT-rand members against the fixed card.
RMAT = [f"RMAT-{edges / 1e9:g}B" for edges in RMAT_EDGES]
RIGHT = {(name, engine): RunSpec(name, "PR", engine, scale=RMAT_SCALE,
                                 memory_bytes=RMAT_MEMORY)
         for name in RMAT for engine in ("Ascetic", "Subway")}
RUNS = [*LEFT.values(), *RIGHT.values()]


def speedups(cells, sweep, xs):
    """Subway seconds / Ascetic seconds at each x of a sweep, plus both."""
    out = []
    for x in xs:
        asc = cells[sweep[(x, "Ascetic")]].elapsed_seconds
        sub = cells[sweep[(x, "Subway")]].elapsed_seconds
        out.append((x, asc, sub, sub / asc))
    return out


def test_fig11_left_gpu_memory_sweep(benchmark, cells):
    points = benchmark.pedantic(speedups, args=(cells, LEFT, MEMORY_FRACTIONS),
                                rounds=1, iterations=1)
    rows = [[f"{frac:.0%}", f"{asc:.2f}s", f"{sub:.2f}s", f"{s:.2f}x"]
            for frac, asc, sub, s in points]
    report(
        "fig11_left",
        "Fig. 11 (left) — GPU memory sweep, PR on FK "
        "(paper: still +24.6% at 35% memory:dataset)",
        format_table(["memory/dataset", "Ascetic", "Subway", "speedup"], rows),
    )

    speedup = [s for *_, s in points]
    # Ascetic never loses to Subway, even at 35 % memory…
    assert all(s > 1.0 for s in speedup)
    assert speedup[0] > 1.15  # ≳ the paper's +24.6 % at the low end
    # …and the benefit grows with available memory (more reuse to exploit).
    assert speedup[-1] > speedup[0]


def test_fig11_right_rmat_size_sweep(benchmark, cells):
    points = benchmark.pedantic(speedups, args=(cells, RIGHT, RMAT),
                                rounds=1, iterations=1)
    fracs = [RMAT_MEMORY / make_workload(name, "PR", scale=RMAT_SCALE)
             .graph.dataset_bytes for name in RMAT]
    rows = [[name, f"{frac:.0%}", f"{asc:.2f}s", f"{sub:.2f}s", f"{s:.2f}x"]
            for (name, asc, sub, s), frac in zip(points, fracs)]
    report(
        "fig11_right",
        "Fig. 11 (right) — RMAT dataset-size sweep, PR, fixed 16 GB-class card "
        "(paper: ≥1.5x even at ~20% memory:dataset)",
        format_table(["dataset", "mem/data", "Ascetic", "Subway", "speedup"], rows),
    )

    speedup = [s for *_, s in points]
    assert all(s > 1.0 for s in speedup)
    # The largest dataset still clears a healthy margin (paper: 1.5×).
    assert speedup[-1] > 1.2
    # Memory:dataset shrinks as the dataset grows (the sweep's premise).
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
