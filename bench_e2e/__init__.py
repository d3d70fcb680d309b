"""bench_e2e — the end-to-end benchmark of the Ascetic reproduction.

Four named workloads, host wall-clock and modelled (virtual-time) metrics,
and per-layer attribution measured from outside the program: every layer is
timed around calls into its public functions, nothing under ``src/`` is
instrumented.  ``python3 -m bench_e2e --help`` lists the modes; the
contract with the PR driver is ``BENCHMARK.json`` at the repository root;
``bench_e2e/README.md`` is the metric glossary.
"""
