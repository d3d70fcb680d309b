#!/usr/bin/env python
"""Web-scale ranking: PageRank on a crawl that dwarfs GPU memory.

The scenario from the paper's introduction: a search engine ranks a web
crawl (here the uk-2007-04 analogue) whose edge data exceeds device
memory.  This example compares all four data-movement policies on the
same computation and prints where Ascetic's advantage comes from.

Run:  python examples/web_ranking.py
"""

import numpy as np

from repro import GPUSpec, load_dataset
from repro.algorithms import make_program
from repro.algorithms.validate import reference_pagerank
from repro.analysis.report import format_table, human_bytes
from repro.engines import registry

SCALE = 2e-4
dataset = load_dataset("UK", scale=SCALE)
graph = dataset.graph
spec = GPUSpec(memory_bytes=dataset.gpu_memory_bytes)
print(f"ranking {graph} on a "
      f"{human_bytes(dataset.gpu_memory_bytes / SCALE)} (paper-scale) device\n")

results = {}
for name in registry.available():
    engine = registry.create(name, spec=spec, data_scale=SCALE)
    results[name] = engine.run(graph, make_program("PR", tol=1e-2))

# Every engine must rank the pages identically (they differ only in how
# edge data reaches the GPU).
baseline = results["Ascetic"].values
for name, res in results.items():
    assert np.allclose(res.values, baseline, rtol=1e-9), name

rows = []
for name, res in results.items():
    rows.append(
        [
            name,
            f"{res.elapsed_seconds:.1f}s",
            f"{results['Ascetic'].elapsed_seconds / res.elapsed_seconds:.2f}x",
            human_bytes(res.metrics.bytes_h2d),
            f"{res.gpu_idle_fraction:.0%}",
        ]
    )
print(format_table(
    ["engine", "time (paper scale)", "vs Ascetic", "H2D traffic", "GPU idle"],
    rows,
))

# Sanity: the ranking is the real PageRank fixpoint.
reference = reference_pagerank(graph)
top_measured = np.argsort(baseline)[-10:][::-1]
top_reference = np.argsort(reference)[-10:][::-1]
overlap = len(set(top_measured.tolist()) & set(top_reference.tolist()))
print(f"\ntop-10 pages agree with the exact solve on {overlap}/10 entries")
print("top-5 page ids:", top_measured[:5].tolist())
