"""Naive references for the gather → transfer → compute round chain.

Kept out of ``src/`` on purpose: ``repro.gpusim.rounds`` splits volumes in
closed form and charges long chains in aggregate; these are the obvious
one-round-at-a-time versions the tests hold it to.

Oracle table — each oracle's name and kind (``spec``: written from a
definition)::

    iterative_split   spec
    round_chain_loop  spec
"""


def iterative_split(total, n_rounds):
    """Per-round shares by repeatedly taking ``ceil(left / rounds_left)``."""
    sizes, left = [], total
    for k in range(n_rounds, 0, -1):
        take = -(-left // k)
        sizes.append(take)
        left -= take
    return sizes


def round_chain_loop(gpu, total_bytes, n_edges, n_rounds, *, atomics,
                     after=0.0, sequential=False,
                     labels=("od-gather", "od-transfer", "od-compute"),
                     compute_phase="Tondemand"):
    """The per-round schedule, op by op, however many rounds there are.

    Pipelined: each op depends on the previous stage, the next gather on
    the previous gather.  Sequential: no dependencies at all, the
    controlling thread simply waits for every op (Fig. 5 top).
    """
    gather, transfer, compute = labels
    shares = zip(iterative_split(total_bytes, n_rounds),
                 iterative_split(n_edges, n_rounds))
    if sequential:
        gpu.sync(after)
    prev = after
    for r_bytes, r_edges in shares:
        if sequential:
            with gpu.phase("Tfilling"):
                gpu.sync(gpu.cpu_gather(r_bytes, label=gather))
            with gpu.phase("Ttransfer"):
                gpu.sync(gpu.h2d(r_bytes, label=transfer))
            with gpu.phase(compute_phase):
                gpu.sync(gpu.edge_kernel(r_edges, label=compute,
                                         atomics=atomics))
            continue
        with gpu.phase("Tfilling"):
            t_gather = gpu.cpu_gather(r_bytes, label=gather, after=prev)
        with gpu.phase("Ttransfer"):
            t_xfer = gpu.h2d(r_bytes, label=transfer, after=t_gather)
        with gpu.phase(compute_phase):
            gpu.edge_kernel(r_edges, label=compute, atomics=atomics,
                            after=t_xfer)
        prev = t_gather
