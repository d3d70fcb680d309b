"""Cost-model sensitivity — are the conclusions artifacts of the constants?

A simulation-based reproduction must show its headline orderings are not
tuned in: this bench perturbs each cost-model constant by 2× in both
directions (PCIe bandwidth, host gather bandwidth, kernel throughput) and
re-measures Ascetic vs Subway.  The *magnitude* of the speedup moves — it
should, these constants set the compute:transfer balance — but the
*ordering* must hold everywhere, and it does.
"""

from dataclasses import replace

from repro.algorithms import make_program
from repro.analysis.report import format_table
from repro.core.ascetic import AsceticEngine
from repro.engines.subway import SubwayEngine
from repro.gpusim.host import HostGather
from repro.gpusim.kernel import KernelModel
from repro.gpusim.pcie import PCIeLink
from repro.harness.experiments import make_workload

from conftest import report


def variants(spec):
    yield "baseline", spec
    for f, tag in ((0.5, "½"), (2.0, "2")):
        yield f"PCIe bw ×{tag}", replace(
            spec, pcie=PCIeLink(bandwidth=spec.pcie.bandwidth * f,
                                latency=spec.pcie.latency,
                                burst=spec.pcie.burst)
        )
        yield f"gather bw ×{tag}", replace(
            spec, gather=HostGather(bandwidth=spec.gather.bandwidth * f,
                                    setup=spec.gather.setup)
        )
        yield f"kernel ×{tag}", replace(
            spec, kernel=KernelModel(
                edge_throughput=spec.kernel.edge_throughput * f,
                vertex_scan_throughput=spec.kernel.vertex_scan_throughput,
                launch_overhead=spec.kernel.launch_overhead,
                atomic_penalty=spec.kernel.atomic_penalty,
            )
        )


def test_cost_model_sensitivity(benchmark):
    # Direct runs: a perturbed GPUSpec is not a field a spec carries.
    w = make_workload("FK", "CC")

    def run():
        out = []
        for label, spec in variants(w.spec):
            sub = SubwayEngine(spec=spec, data_scale=w.scale).run(
                w.graph, make_program("CC")
            )
            asc = AsceticEngine(spec=spec, data_scale=w.scale).run(
                w.graph, make_program("CC")
            )
            out.append((label, sub.elapsed_seconds, asc.elapsed_seconds))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, f"{sub:.2f}s", f"{asc:.2f}s", f"{sub / asc:.2f}x"]
        for label, sub, asc in results
    ]
    report(
        "sensitivity",
        "Cost-model sensitivity — Ascetic vs Subway (CC on FK) under 2x "
        "perturbations of every constant",
        format_table(["variant", "Subway", "Ascetic", "speedup"], rows),
    )

    # The ordering survives every perturbation; the magnitude moves within
    # a sane band (no perturbation flips or trivializes the result).
    speedups = [sub / asc for _, sub, asc in results]
    assert all(s > 1.0 for s in speedups)
    assert max(speedups) / min(speedups) < 4.0
