#!/usr/bin/env python
"""The Fig. 5 story, read straight off one event log.

Subway-style processing runs gather → transfer → compute strictly in
sequence, so the GPU idles while the CPU fills buffers; Ascetic overlaps
the on-demand transfers of iteration *i* with the static-region compute of
iteration *i*, which is the paper's headline latency win.  Both claims are
*timeline* claims, so this example records one run of each engine with
``record_events=True`` and renders the per-lane event log as an ASCII
timeline — the same data `repro trace` exports for ui.perfetto.dev.

Run:  python examples/trace_timeline.py
"""

from repro.gpusim.events import idle_breakdown
from repro.harness.experiments import make_workload, run_workload

SCALE = 5e-5
WIDTH = 72  # timeline columns

workload = make_workload("FK", "BFS", scale=SCALE)


def render(result, lanes=("cpu", "copy", "gpu")):
    """Draw each lane as a row of WIDTH cells; '#' marks busy time."""
    horizon = result.elapsed_seconds
    log = result.event_log
    print(f"\n{result.engine}: {result.iterations} iterations, "
          f"{horizon:.2f}s simulated")
    for lane in lanes:
        cells = [" "] * WIDTH
        for span in log.spans():
            if span.lane != lane:
                continue
            lo = int(span.start / horizon * WIDTH)
            hi = max(int(span.end / horizon * WIDTH), lo + 1)
            for i in range(lo, min(hi, WIDTH)):
                cells[i] = "#"
        b = idle_breakdown(log, lane, horizon)
        print(f"  {lane:>4} |{''.join(cells)}| busy {b.busy:6.2f}s  "
              f"idle {b.idle:6.2f}s (lead {b.lead:.2f} / "
              f"stall {b.stall:.2f} / tail {b.tail:.2f})")


subway = run_workload(workload, "Subway", record_events=True)
ascetic = run_workload(workload, "Ascetic", record_events=True)

render(subway)
render(ascetic)

# The number behind the pictures: mid-run stalls are where Subway's GPU
# waits for the sequential gather+transfer, and what Ascetic's overlap
# removes (§2.2 measures this at 68 % idle on the paper's testbed).
for r in (subway, ascetic):
    b = idle_breakdown(r.event_log, "gpu", r.elapsed_seconds)
    print(f"\n{r.engine:>8}: GPU idle {b.idle_fraction:5.1%} of the run "
          f"({b.stall:.2f}s of it mid-run stalls)")

speedup = subway.elapsed_seconds / ascetic.elapsed_seconds
print(f"\nAscetic end-to-end speedup over Subway: {speedup:.2f}x")
