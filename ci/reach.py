"""Function census: which functions under ``src/repro`` the project's own
traffic runs.

The traffic is every ``bench_e2e`` workload and its smoke pass, the paper
figures under ``benchmarks/``, the scripts under ``examples/`` and every
``repro`` command that ``.github/workflows/ci.yml`` runs.  Each runs in a
subprocess whose ``sitecustomize`` installs a ``sys.setprofile`` hook (kept
armed when a caller such as pytest-benchmark clears the profiler) that
appends each function under ``src/repro`` to a log the first time it runs, so
forked workers that leave through ``os._exit`` still report.

The result, ``ci/reach.txt``, is one sorted ``path:Qualname`` line per
module-level function or method that ran; a nested ``def``, lambda or
comprehension counts with the function that encloses it.
``tests/test_surface_census.py`` checks that every other function is named
with a reason.  Run from anywhere (about 90 s on two cores)::

    python ci/reach.py            # rewrites ci/reach.txt
    python ci/reach.py -o FILE    # writes FILE instead
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

HOOK = '''\
import os, sys, threading

_log = os.environ.get("REPRO_REACH_LOG")
if _log:
    _package = os.environ["REPRO_REACH_PACKAGE"]
    _seen = set()
    _setprofile = sys.setprofile

    def _hook(frame, event, arg):
        if event == "call" and frame.f_code not in _seen:
            code = frame.f_code
            _seen.add(code)
            if code.co_filename.startswith(_package):
                with open(_log, "a") as fh:
                    fh.write(f"{code.co_filename}:{code.co_qualname}\\n")

    def _rearm(func):
        _setprofile(_hook)

    sys.setprofile = _rearm
    threading.setprofile(_hook)
    _setprofile(_hook)
'''

WORKLOADS = ("paper_grid", "oom_pressure", "recorded_chaos", "serve_fleet")
ENGINES = ("PT", "UVM", "Subway", "Ascetic", "Hybrid")
SCALE = ("--scale", "5e-5")


def repro(*args):
    return (sys.executable, "-m", "repro.cli", *args)


def traffic(out):
    """``(argv, cwd)`` for every command of the census; files go under *out*,
    which holds a copy of ``benchmarks/``."""
    py = sys.executable
    yield (py, "-m", "bench_e2e", "--smoke"), REPO
    for workload in WORKLOADS:
        yield (py, "-m", "bench_e2e", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", "0"), REPO
    # On the copy main() makes: the suite rewrites benchmarks/results/.
    yield (py, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
           "-p", "no:cacheprovider", "-o", "python_files=bench_*.py"), out
    for example in sorted((REPO / "examples").glob("*.py")):
        yield (py, str(example)), out
    # .github/workflows/ci.yml, job by job.
    for args in (("--help",), ("engines",), ("datasets",)):
        yield repro(*args), out
    for engine in ENGINES + ("Sharded",):
        yield repro("trace", "FK", "BFS", "--engine", engine, *SCALE,
                    "-o", f"fk_bfs_{engine}.trace.json"), out
    for jobs in ("1", "2"):
        yield repro("grid", "--datasets", "FK", "GS", "--algos", "BFS", "SSSP",
                    "CC", "PR", *SCALE, "--no-cache", "--jobs", jobs), out
    yield repro("serve", "--quick", "-o", "slo-report.json"), out
    yield repro("serve", "--engine", "Hybrid", "--requests", "8", "--rate",
                "4.0", "--graphs", "GS", "--algos", "BFS", "CC", *SCALE,
                "--max-engines", "2"), out
    yield repro("serve", "--algos", "BFS", "SSSP", "CC", "PR", "SSWP",
                "PR-PULL", "KCORE", "--graphs", "GS", "FK", "--requests", "21",
                "--seed", "1", "--rate", "0.5", *SCALE, "--multi-source", "2",
                "--max-batch", "2"), out
    yield repro("fleet", "--quick", "-o", "fleet-slo.json"), out
    for engine in ENGINES:
        yield repro("chaos", "FK", "BFS", "--engine", engine, "--seed", "7",
                    *SCALE), out
    yield repro("chaos", "GS", "BFS", "--fleet", "--seed", "0", *SCALE,
                "-o", "degraded-slo.json"), out
    yield repro("chaos", "FK", "BFS", "--fleet", "--devices", "3", "--engine",
                "Hybrid", "--seed", "7", *SCALE), out


class _Definitions(ast.NodeVisitor):
    def __init__(self):
        self.scope, self.found = [], {}

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        # Not visited further: a nested def counts with its enclosing one.
        self.found[".".join(self.scope + [node.name])] = node

    visit_AsyncFunctionDef = visit_FunctionDef


def defined_functions():
    """``{"path:Qualname": code lines}`` for every module-level function and
    method under ``src/repro``; a code line is neither blank nor a comment."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        visitor = _Definitions()
        visitor.visit(ast.parse("\n".join(lines)))
        rel = path.relative_to(REPO).as_posix()
        for qualname, node in visitor.found.items():
            body = (line.strip() for line in lines[node.lineno - 1:node.end_lineno])
            out[f"{rel}:{qualname}"] = sum(
                1 for line in body if line and not line.startswith("#"))
    return out


def census(log_path):
    """The sorted ``path:Qualname`` entries a hook log names."""
    defined = defined_functions()
    reached = set()
    for line in Path(log_path).read_text().splitlines():
        filename, _, qualname = line.rpartition(":")
        rel = Path(filename).resolve().relative_to(REPO).as_posix()
        key = f"{rel}:{qualname.split('.<locals>')[0]}"
        if key in defined:
            reached.add(key)
    return sorted(reached)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", default=str(REPO / "ci" / "reach.txt"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        hook_dir = tmp / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        log = tmp / "reach.log"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]),
                   REPRO_REACH_LOG=str(log),
                   REPRO_REACH_PACKAGE=str(PACKAGE) + os.sep,
                   REPRO_BENCH_JOBS="1", REPRO_BENCH_NO_CACHE="1")
        shutil.copytree(REPO / "benchmarks", tmp / "benchmarks",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        for argv_, cwd in traffic(tmp):
            print("reach:", " ".join(argv_[1:]), flush=True)
            subprocess.run(argv_, cwd=cwd, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        lines = census(log)
    Path(args.output).write_text("".join(f"{line}\n" for line in lines))
    print(f"reach: {len(lines)} functions -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
