"""Public-API hygiene: exports resolve, docstrings exist, imports are clean."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.graph",
    "repro.graph.csr",
    "repro.graph.generators",
    "repro.graph.datasets",
    "repro.graph.partition",
    "repro.graph.properties",
    "repro.graph.reorder",
    "repro.gpusim",
    "repro.gpusim.clock",
    "repro.gpusim.device",
    "repro.gpusim.events",
    "repro.gpusim.faults",
    "repro.gpusim.host",
    "repro.gpusim.kernel",
    "repro.gpusim.memory",
    "repro.gpusim.metrics",
    "repro.gpusim.pcie",
    "repro.gpusim.stream",
    "repro.gpusim.uvm",
    "repro.algorithms",
    "repro.algorithms.base",
    "repro.algorithms.frontier",
    "repro.algorithms.bfs",
    "repro.algorithms.sssp",
    "repro.algorithms.cc",
    "repro.algorithms.pagerank",
    "repro.algorithms.pagerank_pull",
    "repro.algorithms.sswp",
    "repro.algorithms.kcore",
    "repro.algorithms.validate",
    "repro.engines",
    "repro.engines.base",
    "repro.engines.hybrid",
    "repro.engines.partition_based",
    "repro.engines.registry",
    "repro.engines.subway",
    "repro.engines.uvm_engine",
    "repro.core",
    "repro.core.ascetic",
    "repro.core.manager",
    "repro.core.ondemand",
    "repro.core.ratio",
    "repro.core.replacement",
    "repro.core.static_region",
    "repro.analysis",
    "repro.analysis.traces",
    "repro.analysis.active_edges",
    "repro.analysis.breakdown",
    "repro.analysis.reuse",
    "repro.analysis.report",
    "repro.harness",
    "repro.harness.checkpoint",
    "repro.harness.experiments",
    "repro.harness.persistence",
    "repro.runner",
    "repro.runner.spec",
    "repro.runner.cache",
    "repro.runner.executor",
    "repro.serve",
    "repro.serve.request",
    "repro.serve.queue",
    "repro.serve.scheduler",
    "repro.serve.pool",
    "repro.serve.batching",
    "repro.serve.slo",
    "repro.serve.simulator",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_with_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Every public class/function the module exports carries a docstring."""
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{name}.{symbol} lacks a docstring"
                )


def test_version_exposed():
    import repro

    assert repro.__version__


def test_top_level_surface_pinned():
    """``repro.__all__`` is the stable public surface — change deliberately."""
    import repro

    assert set(repro.__all__) == {
        "CSRGraph",
        "load_dataset",
        "DATASETS",
        "GPUSpec",
        "SimulatedGPU",
        "Engine",
        "IterationRecord",
        "RunResult",
        "AccessPath",
        "PartitionEngine",
        "UVMEngine",
        "SubwayEngine",
        "AsceticEngine",
        "HybridEngine",
        "registry",
        "FaultPlan",
        "standard_plan",
        "RunSpec",
        "ResultCache",
        "GridReport",
        "run_grid",
        "serve",
        "__version__",
    }


def test_engines_package_exports_ascetic():
    """The engine surface is complete: baselines + the paper's engine."""
    import repro.engines as engines

    assert engines.AsceticEngine is engines.registry.get("Ascetic")
    for name in ("PT", "UVM", "Subway", "Ascetic", "Hybrid", "Sharded"):
        assert name in engines.registry.available()
