"""Process-pool grid execution with caching and per-cell fault isolation.

:func:`run_grid` takes a list of :class:`~repro.runner.spec.RunSpec` cells
and executes them with

* **caching** — cells whose spec hashes to a fresh entry in a
  :class:`~repro.runner.cache.ResultCache` are replayed, not recomputed;
* **parallelism** — with ``jobs > 1``, pending cells fan out across worker
  processes (one process per cell, at most ``jobs`` alive at once);
* **fault isolation** — a worker that raises, crashes, or exceeds
  ``timeout`` degrades its cell to ``failed`` after ``retries`` extra
  attempts; the grid always returns a complete :class:`GridReport`.

Determinism: every result — computed in-process, computed in a worker, or
replayed from cache — passes through the lossless payload form of
:mod:`repro.harness.persistence`, so serial and parallel execution yield
bit-identical :class:`~repro.engines.base.RunResult` values and metrics.

``jobs=1`` runs cells inline in this process (no isolation against
hard crashes, though timeouts are still enforced on the main thread);
``jobs>1`` forks workers, so engines registered at runtime — including
test fakes — are visible to the children on platforms with ``fork``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engines.base import RunResult
from repro.harness.persistence import result_from_payload, result_to_payload
from repro.runner.cache import CacheStats, ResultCache
from repro.runner.spec import RunSpec

__all__ = ["CellOutcome", "GridReport", "run_grid", "grid_specs"]

#: Parent-side grace period added to ``timeout`` before the worker is
#: killed (the worker enforces the timeout itself via ``SIGALRM`` first;
#: the parent deadline is the backstop for workers stuck in C code).
_KILL_GRACE_SECONDS = 5.0


class CellTimeoutError(Exception):
    """A cell exceeded the per-cell time budget."""


@dataclass
class CellOutcome:
    """What happened to one grid cell."""

    spec: RunSpec
    status: str  # "ok" | "cached" | "failed"
    result: Optional[RunResult] = None
    error: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether a result is available (fresh or replayed)."""
        return self.status in ("ok", "cached")


@dataclass
class GridReport:
    """Everything :func:`run_grid` has to say about one invocation."""

    cells: List[CellOutcome]
    cache: Optional[CacheStats]
    jobs: int
    wall_seconds: float

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.cells if c.status == "ok")

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.cells if c.status == "cached")

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cells if c.status == "failed")

    def result_map(self) -> Dict[Tuple[str, str], Dict[str, RunResult]]:
        """``(dataset, algorithm) → engine → result`` for succeeded cells."""
        out: Dict[Tuple[str, str], Dict[str, RunResult]] = {}
        for c in self.cells:
            if c.result is not None:
                out.setdefault((c.spec.dataset, c.spec.algorithm), {})[
                    c.spec.engine
                ] = c.result
        return out

    def summary(self) -> str:
        """One-line account: cell counts, wall time, cache counters."""
        parts = [
            f"{len(self.cells)} cell(s): {self.n_ok} computed, "
            f"{self.n_cached} cached, {self.n_failed} failed "
            f"in {self.wall_seconds:.1f}s wall ({self.jobs} job(s))"
        ]
        if self.cache is not None:
            parts.append(self.cache.summary())
        return "; ".join(parts)


def grid_specs(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    engines: Sequence[str],
    scale: Optional[float] = None,
    memory_bytes: Optional[int] = None,
    seed: int = 0,
    fault_plan=None,
) -> List[RunSpec]:
    """The cross product as specs, datasets-major (the benchmark order).

    ``seed``/``fault_plan`` stamp every cell with the same chaos-mode
    configuration (a chaos grid); the defaults are the fault-free model.
    """
    return [
        RunSpec(dataset=d, algorithm=a, engine=e, scale=scale,
                memory_bytes=memory_bytes, seed=seed, fault_plan=fault_plan)
        for d, a, e in itertools.product(datasets, algorithms, engines)
    ]


# --------------------------------------------------------------- execution
def _execute_spec(spec: RunSpec, checkpoint_dir: Optional[str] = None) -> RunResult:
    """Build the workload and run the cell (current process)."""
    from repro.harness.experiments import run_cell

    return run_cell(spec, checkpoint_dir=checkpoint_dir)


def _raise_timeout(signum, frame):  # pragma: no cover - trivial
    raise CellTimeoutError("cell exceeded its time budget")


def _can_use_sigalrm() -> bool:
    """Whether an inline timeout is enforceable in this context.

    ``SIGALRM``-based enforcement needs a POSIX interval timer
    (``signal.setitimer``; absent on Windows) and must run on the main
    thread — CPython refuses to install signal handlers anywhere else.
    When it is unavailable (e.g. :func:`run_grid` called from a worker
    thread of a larger application), the inline path runs the cell to
    completion instead of failing; the process-pool path (``jobs > 1``)
    still enforces the timeout parent-side via the worker deadline, so
    callers that need hard timeouts off the main thread should use it.
    """
    return (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


def _run_inline(spec: RunSpec, timeout: Optional[float],
                checkpoint_dir: Optional[str] = None) -> RunResult:
    """Run one cell in this process, enforcing ``timeout`` when possible.

    ``timeout=None`` means *unlimited*: no signal handler or interval
    timer is installed at all (the previous behaviour armed the plumbing
    even when there was nothing to enforce).  A finite timeout is enforced
    via ``SIGALRM`` when :func:`_can_use_sigalrm` allows; otherwise the
    cell simply runs to completion (see that helper for the fallback
    contract).
    """
    if timeout is None or not _can_use_sigalrm():
        return _execute_spec(spec, checkpoint_dir)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _execute_spec(spec, checkpoint_dir)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _worker_main(conn, spec_dict: dict, timeout: Optional[float],
                 checkpoint_dir: Optional[str] = None) -> None:
    """Subprocess entry: run one cell, ship the payload (or error) back.

    With ``timeout=None`` no timer is armed; a finite timeout is enforced
    in-process via ``SIGALRM`` where the platform has it (workers are
    fresh main threads, so only the platform check matters), with the
    parent's kill deadline as the backstop either way.
    """
    try:
        if (timeout is not None and hasattr(signal, "SIGALRM")
                and hasattr(signal, "setitimer")):
            signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        spec = RunSpec.from_dict(spec_dict)
        result = _execute_spec(spec, checkpoint_dir)
        message = {"ok": True, "payload": result_to_payload(result)}
    except BaseException as exc:  # isolate *everything*; the parent decides
        message = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    try:
        conn.send(message)
    except Exception:
        pass  # parent already gone; its deadline handling covers us
    finally:
        conn.close()


@dataclass
class _Task:
    spec: RunSpec
    indices: List[int]
    attempts: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class _Running:
    task: _Task
    proc: "mp.process.BaseProcess"
    conn: object
    started: float
    deadline: Optional[float]


def _kill(proc) -> None:
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():  # pragma: no cover - terminate nearly always lands
        proc.kill()
        proc.join(timeout=1.0)


def _preload_datasets(tasks: Sequence[_Task]) -> None:
    """Warm the parent's dataset cache so forked workers share pages."""
    from repro.harness.experiments import _cached_dataset

    for key in {(t.spec.dataset, t.spec.scale) for t in tasks}:
        try:
            _cached_dataset(*key)
        except Exception:
            pass  # let the worker fail per-cell instead of killing the grid


def _run_tasks_parallel(
    tasks: List[_Task],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    checkpoint_dir: Optional[str] = None,
) -> Dict[int, CellOutcome]:
    """Fan ``tasks`` out over worker processes; one ``CellOutcome`` each.

    Returns outcomes keyed by each task's first input index.
    """
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    if ctx.get_start_method() == "fork":
        _preload_datasets(tasks)

    queue = deque(tasks)
    running: List[_Running] = []
    outcomes: Dict[int, CellOutcome] = {}

    def finish(task: _Task, outcome: CellOutcome) -> None:
        outcomes[task.indices[0]] = outcome

    def settle(run: _Running, message, crash_error: Optional[str], now: float) -> None:
        task = run.task
        run.conn.close()
        run.proc.join(timeout=1.0)
        elapsed = now - run.started
        if message is not None and message.get("ok"):
            finish(
                task,
                CellOutcome(
                    spec=task.spec,
                    status="ok",
                    result=result_from_payload(message["payload"]),
                    attempts=task.attempts,
                    seconds=elapsed,
                ),
            )
            return
        error = crash_error if message is None else message.get("error", "unknown error")
        task.errors.append(error)
        if task.attempts <= retries:
            queue.append(task)
        else:
            finish(
                task,
                CellOutcome(
                    spec=task.spec,
                    status="failed",
                    error="; ".join(task.errors),
                    attempts=task.attempts,
                    seconds=elapsed,
                ),
            )

    try:
        while queue or running:
            while queue and len(running) < jobs:
                task = queue.popleft()
                task.attempts += 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, task.spec.to_dict(), timeout, checkpoint_dir),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                started = time.monotonic()
                deadline = (
                    started + timeout + _KILL_GRACE_SECONDS
                    if timeout is not None
                    else None
                )
                running.append(_Running(task, proc, parent_conn, started, deadline))

            ready = _conn_wait([r.conn for r in running], timeout=0.05)
            now = time.monotonic()
            still: List[_Running] = []
            for run in running:
                message = None
                crash_error = None
                if run.conn in ready or run.conn.poll():
                    try:
                        message = run.conn.recv()
                    except (EOFError, OSError):
                        crash_error = (
                            f"worker crashed (exit code {run.proc.exitcode})"
                        )
                elif not run.proc.is_alive():
                    crash_error = f"worker crashed (exit code {run.proc.exitcode})"
                elif run.deadline is not None and now >= run.deadline:
                    _kill(run.proc)
                    crash_error = (
                        f"CellTimeoutError: exceeded {timeout:g}s "
                        "(worker killed by the parent)"
                    )
                else:
                    still.append(run)
                    continue
                settle(run, message, crash_error, now)
            running = still
    finally:
        for run in running:  # pragma: no cover - only on unexpected unwind
            _kill(run.proc)
    return outcomes


def _run_tasks_serial(
    tasks: List[_Task],
    timeout: Optional[float],
    retries: int,
    checkpoint_dir: Optional[str] = None,
) -> Dict[int, CellOutcome]:
    """Run every task inline, with the same retry/timeout semantics."""
    outcomes: Dict[int, CellOutcome] = {}
    for task in tasks:
        while True:
            task.attempts += 1
            t0 = time.monotonic()
            try:
                raw = _run_inline(task.spec, timeout, checkpoint_dir)
                # Normalize through the lossless payload form so serial
                # results are bitwise identical to worker/cache results.
                result = result_from_payload(result_to_payload(raw))
            except Exception as exc:
                task.errors.append(f"{type(exc).__name__}: {exc}")
                if task.attempts <= retries:
                    continue
                outcomes[task.indices[0]] = CellOutcome(
                    spec=task.spec,
                    status="failed",
                    error="; ".join(task.errors),
                    attempts=task.attempts,
                    seconds=time.monotonic() - t0,
                )
                break
            outcomes[task.indices[0]] = CellOutcome(
                spec=task.spec,
                status="ok",
                result=result,
                attempts=task.attempts,
                seconds=time.monotonic() - t0,
            )
            break
    return outcomes


def run_grid(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint_dir: Optional[str] = None,
) -> GridReport:
    """Execute a batch of grid cells; never raises for a failing cell.

    Parameters
    ----------
    specs:
        The cells to run (duplicates are computed once and shared).
    jobs:
        ``1`` runs inline; ``> 1`` fans out across that many worker
        processes with crash isolation.
    cache:
        A :class:`~repro.runner.cache.ResultCache`, a directory path to
        open one in, or ``None`` to always recompute.
    timeout:
        Per-cell budget in wall seconds.  ``None`` (the default) means
        *unlimited* — no signal handler, interval timer, or parent-side
        kill deadline is installed anywhere.  A finite timeout is
        enforced via ``SIGALRM`` where available (POSIX main thread /
        fresh worker processes) and backstopped by a parent-side kill
        deadline when ``jobs > 1``; see :func:`_can_use_sigalrm` for the
        fallback when neither applies.
    retries:
        Extra attempts after a failed one before the cell is marked
        ``failed``.  ``0`` means exactly one attempt: the first failure
        is final.
    checkpoint_dir:
        Directory for per-iteration checkpoints (``None`` disables
        them).  With a directory, every attempt snapshots after each
        iteration under the spec's cache key, so a retry of a crashed or
        timed-out cell resumes from its last completed iteration instead
        of starting over — in both the serial and process-pool paths.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    t_start = time.monotonic()
    specs = list(specs)
    outcomes: List[Optional[CellOutcome]] = [None] * len(specs)

    # Cache replay + dedup of identical pending cells.
    tasks: Dict[str, _Task] = {}
    for i, spec in enumerate(specs):
        if not isinstance(spec, RunSpec):
            raise TypeError(f"specs[{i}] is {type(spec).__name__}, expected RunSpec")
        key = spec.cache_key()
        if key in tasks:
            tasks[key].indices.append(i)
            continue
        if cache is not None:
            hit = cache.lookup(spec)
            if hit is not None:
                outcomes[i] = CellOutcome(spec=spec, status="cached", result=hit)
                continue
        tasks[key] = _Task(spec=spec, indices=[i])

    pending = list(tasks.values())
    if pending:
        runner = (
            _run_tasks_parallel(pending, min(jobs, len(pending)), timeout,
                                retries, checkpoint_dir)
            if jobs > 1
            else _run_tasks_serial(pending, timeout, retries, checkpoint_dir)
        )
        for task in pending:
            outcome = runner[task.indices[0]]
            if cache is not None and outcome.status == "ok":
                cache.store(task.spec, outcome.result)
            for i in task.indices:
                outcomes[i] = outcome

    assert all(o is not None for o in outcomes)
    return GridReport(
        cells=list(outcomes),
        cache=cache.stats if cache is not None else None,
        jobs=jobs,
        wall_seconds=time.monotonic() - t_start,
    )
