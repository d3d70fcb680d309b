"""Entry point: pin the process to one thread, find ``src/``, then run.

The thread pools are pinned *before* NumPy is imported (run discipline:
one process, one thread), ``REPRO_NUMBA`` is cleared so the pure-NumPy
frontier walk is what gets measured, and the import of ``repro`` is timed
because every user of the package pays it (it is part of ``setup_s``).
Without the repository's ``src/`` beside ``bench_e2e/`` the import fails
and the process exits non-zero before printing any result.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("REPRO_NUMBA", None)
    _root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_root / "src"))
    # Children (the suite's subprocesses, cold `repro run`s) inherit both.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(_root / "src"), str(_root)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    _t0 = perf_counter()
    import repro  # noqa: F401  (timed: part of setup_s)
    from bench_e2e.cli import main

    sys.exit(main(import_s=perf_counter() - _t0))
