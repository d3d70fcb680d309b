"""Span shim for the traced pass: layers timed from outside the program.

A :class:`Tracer` wraps public callables of ``repro`` for the duration of
one traced pass and restores them afterwards.  Nothing under ``src/`` knows
about it.  Two kinds of target exist:

* a module-level function — every ``repro.*`` / ``bench_e2e.*`` namespace
  binding that *is* the original object is rebound, so call sites that did
  ``from x import f`` are caught as well as ``x.f(...)``;
* a method — the class attribute is replaced.

Each call records one span ``(index, name, parent, op, start, end)`` on the
host clock (``time.perf_counter``); spans stay in memory until
:meth:`Tracer.table` folds them.  The simulator is single-threaded, so a
span's children are disjoint sub-intervals of it and *self time* is simply
``duration − Σ child durations``.  Self times therefore sum to the root
span's duration exactly (up to float rounding) — the tests pin that.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["Target", "Tracer", "SpanTable"]

#: Namespaces whose bindings are rebound when a function target is wrapped.
REBIND_PREFIXES = ("repro", "bench_e2e")

#: Spans written to the Chrome trace: the longest ones, so the file stays
#: loadable (a recorded-chaos pass emits ~1e6 sub-microsecond spans).
CHROME_TRACE_MAX_SPANS = 50_000


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a module (function target) or a class (method target);
    ``span`` is the span name, ``"<layer>.<what>"``.  ``name_of`` derives
    the span name from the call's positional arguments instead (used to
    split ``Engine.run`` by engine).  ``probe(counters, args, kwargs,
    result)`` runs after the timed region and may add to the tracer's
    counters — counts are taken at the same boundary as the time.
    """

    span: str
    owner: Any
    attr: str
    name_of: Optional[Callable[[Sequence[Any]], str]] = None
    probe: Optional[Callable[[Dict[str, float], Sequence[Any], Dict[str, Any], Any], None]] = None


@dataclass
class SpanTable:
    """Spans of one traced pass as columns, self times included."""

    names: List[str]          # span-name table; ``name_id`` indexes it
    name_id: np.ndarray
    parent: np.ndarray        # span index of the caller's span, -1 for roots
    op: np.ndarray            # op identifier shared by one op's spans
    start: np.ndarray
    end: np.ndarray
    self_seconds: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def _by_name(self, weights: Optional[np.ndarray]) -> Dict[str, float]:
        sums = np.bincount(self.name_id, weights=weights,
                           minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def self_by_name(self) -> Dict[str, float]:
        return self._by_name(self.self_seconds)

    def total_by_name(self) -> Dict[str, float]:
        return self._by_name(self.duration)

    def calls_by_name(self) -> Dict[str, float]:
        return self._by_name(None)

    def self_by_op(self) -> Dict[int, Dict[str, float]]:
        """``op id → span name → self seconds`` (zero entries dropped)."""
        n_names = len(self.names)
        traced = self.op >= 0
        flat = np.bincount(self.op[traced] * n_names + self.name_id[traced],
                           weights=self.self_seconds[traced])
        out: Dict[int, Dict[str, float]] = {}
        for i in np.nonzero(flat)[0].tolist():
            out.setdefault(i // n_names, {})[self.names[i % n_names]] = float(flat[i])
        return out

    def outermost_total(self, prefix: str, suffix: str = "") -> Dict[str, float]:
        """Inclusive seconds per span name matching ``prefix…suffix``,
        counting only spans with no matching ancestor (no double count when
        a sharded run drives inner engines)."""
        match_name = np.array([n.startswith(prefix) and n.endswith(suffix)
                               for n in self.names], dtype=bool)
        is_match = match_name[self.name_id]
        parent, duration = self.parent, self.duration
        out = {name: 0.0 for i, name in enumerate(self.names) if match_name[i]}
        for i in np.nonzero(is_match)[0].tolist():
            p = parent[i]
            while p >= 0 and not is_match[p]:
                p = parent[p]
            if p < 0:
                out[self.names[self.name_id[i]]] += float(duration[i])
        return out

    def chrome_trace(self, max_spans: int = CHROME_TRACE_MAX_SPANS) -> Dict[str, Any]:
        """Chrome-trace document (host clock, microseconds from the first span)."""
        n = len(self.name_id)
        order = np.arange(n)
        if n > max_spans:
            order = np.sort(np.argsort(self.duration)[-max_spans:])
        t0 = float(self.start.min()) if n else 0.0
        events = []
        for i in order.tolist():
            name = self.names[self.name_id[i]]
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (float(self.start[i]) - t0) * 1e6,
                "dur": float(self.end[i] - self.start[i]) * 1e6,
                "pid": 0, "tid": 0, "args": {"op": int(self.op[i])},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "host perf_counter",
                              "spans_recorded": n,
                              "spans_written": len(events)}}

    def write_chrome_trace(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


class Tracer:
    """Wrap targets, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.rows: List[tuple] = []
        #: Counts taken by target probes at the traced boundaries.
        self.counters: Dict[str, float] = defaultdict(float)
        # [current span index, next span index, current op id]
        self._state = [-1, 0, -1]
        self._undo: List[tuple] = []

    # ---------------------------------------------------------------- spans
    def _name_id(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """A span opened by the benchmark itself (pass root, one per op)."""
        state, sid = self._state, self._name_id(name)
        idx, parent, prev_op = state[1], state[0], state[2]
        state[1], state[0] = idx + 1, idx
        if op is not None:
            state[2] = op
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.rows.append((idx, sid, parent, state[2], t0, t1))
            state[0], state[2] = parent, prev_op

    def _wrap(self, target: Target, original: Callable) -> Callable:
        state, rows, counters = self._state, self.rows, self.counters
        probe, name_of, name_id = target.probe, target.name_of, self._name_id
        fixed_sid = None if name_of is not None else name_id(target.span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = fixed_sid if fixed_sid is not None else name_id(name_of(args))
            idx, parent = state[1], state[0]
            state[1], state[0] = idx + 1, idx
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                state[0] = parent
                rows.append((idx, sid, parent, state[2], t0, t1))
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------- install/undo
    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; idempotent per (owner, attr)."""
        seen = set()
        for target in targets:
            key = (id(target.owner), target.attr)
            if key in seen:
                continue
            seen.add(key)
            if isinstance(target.owner, type):
                original = target.owner.__dict__[target.attr]
                if not callable(original):
                    raise TypeError(
                        f"{target.owner.__name__}.{target.attr} is not a plain method")
                self._bind(target.owner, target.attr, original,
                           self._wrap(target, original))
                continue
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith(REBIND_PREFIXES):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, attr, original, wrapper)

    def _bind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order, so nesting is safe)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- folds
    def table(self) -> SpanTable:
        n = self._state[1]
        if len(self.rows) != n:
            raise RuntimeError(f"{n - len(self.rows)} span(s) still open")
        cols = np.array(self.rows, dtype=np.float64).reshape(n, 6)
        cols = cols[np.argsort(cols[:, 0], kind="stable")]
        parent = cols[:, 2].astype(np.int64)
        start, end = cols[:, 4], cols[:, 5]
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=n)
        return SpanTable(
            names=list(self.names), name_id=cols[:, 1].astype(np.int64),
            parent=parent, op=cols[:, 3].astype(np.int64),
            start=start, end=end, self_seconds=duration - covered,
        )
