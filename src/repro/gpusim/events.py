"""The event-sourced timing/accounting core.

Every number the reproduction reports — bytes over PCIe (Tables 2/5),
per-phase component times (Fig. 10), GPU idle share (§2.2's 68 %), UVM
fault counts (§4.4) — comes from one source of truth:

* :class:`EventLog` — the per-run log every
  :meth:`~repro.gpusim.stream.Lane.submit` emits into.  Each emit is folded
  into a :class:`~repro.gpusim.metrics.Metrics` bundle and per-lane
  :class:`LaneStats` on the spot (engines read ``gpu.metrics`` mid-run);
  that one fold is all a **lean** log (the default) does.  A **recorded**
  log additionally appends the row to :class:`EventColumns` for trace
  export (:mod:`repro.analysis.traces`), idle-gap attribution, and
  validation.  Recording decides how much is *retained*, never how
  anything is computed.
* :class:`EventColumns` — the retained rows as growable typed columns:
  interned lane/device, kind, label and phase ids, start/end doubles, the
  iteration, and the counter and ``extra`` payloads as an interned
  key-tuple id plus a value tuple.  ``log.events`` *is* this store, and
  the only form a log takes: readers decode the rows they need through
  :meth:`EventColumns.rows`, and the JSON codec is
  :meth:`EventColumns.to_dicts` / :meth:`EventLog.emit_row`.

``Metrics``, ``phase_seconds``, span traces, and idle accounting are all
*pure folds* over the columns (:func:`fold_metrics`, :func:`fold_spans`,
:func:`fold_lane_stats`, :func:`idle_breakdown`):
NumPy selects the rows a fold reads, the floats are then added one by one
in row order — float addition is not associative and every digest is a
fixed point, so no fold may reduce pairwise.
:func:`validate_log` asserts the invariants that make the fold trustworthy:
lanes never self-overlap, spans are monotone per lane, and the re-folded
metrics equal the incrementally maintained counters bit for bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import (Any, Dict, Hashable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.gpusim.metrics import COUNTER_FIELDS, Metrics

__all__ = [
    "Span",
    "EventColumns",
    "EventLog",
    "EventLogError",
    "LaneStats",
    "IdleBreakdown",
    "COUNTER_FIELDS",
    "FAULT_KINDS",
    "DEVICE_FAULT_KINDS",
    "REQUEST_KINDS",
    "qualified_lane",
    "fold_metrics",
    "fold_spans",
    "fold_lane_stats",
    "fold_device_faults",
    "idle_breakdown",
    "ordered_sum",
    "validate_log",
]

_COUNTER_SET = frozenset(COUNTER_FIELDS)
_COUNTER_RANK = {name: i for i, name in enumerate(COUNTER_FIELDS)}

#: Event kinds emitted by chaos-mode fault injection and recovery.  Lane
#: time under these kinds is *wasted* work: :func:`idle_breakdown` reports
#: it as the ``retry`` bucket, and the Chrome-trace export categorizes
#: them separately so faults stand out in a Perfetto timeline.
FAULT_KINDS = frozenset({
    "h2d-fault", "d2h-fault", "direct-fault", "backoff", "kernel-abort",
    "device-stall",
})

#: Marker kinds narrating whole-device faults and the recovery around them
#: (fleet chaos mode): health transitions (``device-down`` / ``device-up``),
#: peer-link degradation windows, failed dispatches on a dead device, and
#: the sharded engine's recovery steps (``reshard`` + ``ckpt-restore``).
#: All are instant, lane-less events; :func:`fold_device_faults` counts
#: them per device and the trace export renders them in each device's
#: Chrome-trace process.
DEVICE_FAULT_KINDS = frozenset({
    "device-down", "device-up", "peer-degrade", "device-fail",
    "reshard", "ckpt-restore",
})

#: Request-lifecycle marker kinds emitted by the serving layer
#: (:mod:`repro.serve`): instant, lane-less events on the serve clock from
#: which the SLO report is folded (:mod:`repro.serve.slo`).  ``warm-hit`` /
#: ``warm-miss`` record whether a dispatch found a warm Static Region in
#: the engine pool; an engine's own run log additionally carries a
#: ``warm-hit`` marker with resident/refill chunk counts.
REQUEST_KINDS = frozenset({
    "request-arrive", "request-admit", "request-shed",
    "request-start", "request-complete", "warm-hit", "warm-miss",
    "dispatch",
})


def ordered_sum(values) -> Any:
    """``values`` added one by one, left to right, from the int ``0``.

    This is what the builtin ``sum`` did before Python 3.12, which
    compensates float sums (Neumaier) and so rounds differently; every fold
    and report that adds floats goes through here so a digest is the same
    on every Python.  An empty sum stays the int ``0``.
    """
    total = 0
    for value in values:
        total += value
    return total


def qualified_lane(lane: str, device: Optional[int]) -> str:
    """The key a row's lane time is accounted under.

    Single-device rows (``device is None``) keep the bare lane name.  Rows
    from a multi-device fabric are qualified as ``"<lane>@<device>"`` so
    each device's lanes stay serially ordered and separately accountable
    even though all devices share one :class:`EventLog`.
    """
    return lane if device is None else f"{lane}@{device}"


@dataclass(frozen=True)
class Span:
    """One lane-occupying activity — the row type of :func:`fold_spans`."""

    lane: str
    label: str
    start: float
    end: float


@dataclass
class LaneStats:
    """Lean per-lane aggregate maintained by the fold (no retained events).

    Busy seconds and op count only: :func:`idle_breakdown` reads a lane's
    first start and last end from the retained rows.
    """

    busy_seconds: float = 0.0
    n_ops: int = 0


@dataclass(frozen=True)
class IdleBreakdown:
    """Where a lane's idle time went, within ``[0, horizon]``.

    Splits the old undifferentiated ``horizon - busy_seconds`` subtraction
    into *lead* (before the lane's first op — startup, not a stall),
    *stall* (gaps between ops — the §2.2 "GPU waits for the CPU gather"
    signal), and *tail* (after the lane's last op).

    ``retry`` is chaos-mode's wasted-work bucket: lane time occupied by
    fault-recovery events (failed attempts, backoff delays — the
    :data:`FAULT_KINDS`).  It is a slice *of* ``busy``, not of ``idle``:
    the lane was occupied, just not usefully.
    """

    lead: float
    stall: float
    tail: float
    busy: float
    horizon: float
    retry: float = 0.0

    @property
    def idle(self) -> float:
        return self.lead + self.stall + self.tail

    @property
    def idle_fraction(self) -> float:
        return self.idle / self.horizon if self.horizon > 0 else 0.0


class EventLogError(ValueError):
    """A consistency invariant of an :class:`EventLog` does not hold."""


class _Interner:
    """Value ↔ small-int id, ids handed out in first-seen order."""

    __slots__ = ("ids", "values")

    def __init__(self, *seed: Hashable) -> None:
        self.ids: Dict[Hashable, int] = {}
        self.values: List[Any] = []
        for value in seed:
            self(value)

    def __call__(self, value: Hashable) -> int:
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
        return i


class EventColumns:
    """The retained rows of a log, as typed columns.

    One entry per row in every column, in emission order:

    ============  ==========  ===============================================
    column        type        holds
    ============  ==========  ===============================================
    ``who``       int32       id of ``(lane, device)`` in :attr:`whos`
    ``kind``      int32       id in :attr:`kinds`
    ``label``     int32       id in :attr:`labels`
    ``phase``     int32       id in :attr:`phases` (0 = no phase)
    ``start``     float64     virtual seconds
    ``end``       float64     virtual seconds
    ``iteration`` object      ``int`` or ``None``
    ``ckey``      int32       id of the counter-name tuple in :attr:`keysets`
                              (0 = none; names in ``COUNTER_FIELDS`` order)
    ``cval``      object      the counters' non-zero values, a tuple
    ``xkey``      int32       id of the ``extra`` key tuple in :attr:`keysets`
    ``xval``      object      the ``extra`` values, a tuple
    ============  ==========  ===============================================

    The id and time columns are :class:`array.array`\\ s — ``np.array(col)``
    is a memcpy, so folds select rows with NumPy masks.  The payload
    columns are plain lists because their *types* are part of the pinned
    JSON: an ``int`` value must come back an ``int``.  (Times are stored as
    C doubles: an ``int`` time comes back as the equal ``float``.)

    A reader picks its rows with a mask over the id columns and decodes
    only those through :meth:`rows`.  :meth:`add` takes a row *without*
    folding it anywhere, which is how tests plant a row no emitter would
    produce.
    """

    __slots__ = ("who", "kind", "label", "phase", "start", "end", "iteration",
                 "ckey", "cval", "xkey", "xval",
                 "whos", "kinds", "labels", "phases", "keysets")

    def __init__(self) -> None:
        self.who, self.kind, self.label = array("i"), array("i"), array("i")
        self.phase, self.ckey, self.xkey = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.iteration: List[Optional[int]] = []
        self.cval: List[tuple] = []
        self.xval: List[tuple] = []
        self.whos = _Interner()
        self.kinds = _Interner()
        self.labels = _Interner()
        self.phases = _Interner(None)
        self.keysets = _Interner(())

    # -------------------------------------------------------------- writing
    def add(self, lane: str, kind: str, label: str, start: float, end: float,
            phase: Optional[str], iteration: Optional[int],
            device: Optional[int], counters: Optional[Mapping[str, Any]],
            extra: Tuple[Tuple[str, Any], ...]) -> None:
        """Append one row (zero-valued counters are dropped)."""
        ckey, cval = 0, ()
        if counters:
            items = sorted(((name, value) for name, value in counters.items()
                            if value), key=lambda kv: _COUNTER_RANK[kv[0]])
            if items:
                names, cval = zip(*items)
                ckey = self.keysets(names)
        xkey, xval = 0, ()
        if extra:
            keys, xval = zip(*extra)
            xkey = self.keysets(keys)
        self.start.append(start)
        self.end.append(end)
        self.who.append(self.whos((lane, device)))
        self.kind.append(self.kinds(kind))
        self.label.append(self.labels(label))
        self.phase.append(self.phases(phase))
        self.iteration.append(iteration)
        self.ckey.append(ckey)
        self.cval.append(cval)
        self.xkey.append(xkey)
        self.xval.append(xval)

    def add_markers(self, kind: str, labels: Sequence, t: float,
                    phase: Optional[str], iteration: Optional[int],
                    device: Optional[int], extra_keys: Tuple[str, ...],
                    extra_cols: Sequence) -> None:
        """Append ``len(labels)`` counter-less instants sharing ``t``."""
        n = len(labels)
        label_ids = {label: self.labels(label) for label in set(labels)}
        self.start.extend(array("d", (t,)) * n)
        self.end.extend(array("d", (t,)) * n)
        self.who.extend(array("i", (self.whos(("", device)),)) * n)
        self.kind.extend(array("i", (self.kinds(kind),)) * n)
        self.label.extend(array("i", map(label_ids.__getitem__, labels)))
        self.phase.extend(array("i", (self.phases(phase),)) * n)
        self.iteration.extend(repeat(iteration, n))
        self.ckey.extend(array("i", (0,)) * n)
        self.cval.extend(repeat((), n))
        self.xkey.extend(array("i", (self.keysets(extra_keys),)) * n)
        self.xval.extend(zip(*extra_cols) if extra_cols else repeat((), n))

    # -------------------------------------------------------------- reading
    def rows(self, index: "slice | Sequence[int]" = slice(None)
             ) -> Iterator[tuple]:
        """Decoded rows: ``((lane, device), kind, label, phase, iteration,
        start, end, counter names, counter values, extra keys, extra values)``.

        ``index`` is a slice or a list of row numbers in ascending order —
        a fold's mask as ``np.flatnonzero(mask).tolist()``.
        """
        if isinstance(index, slice):
            def take(col):
                return col[index]
        else:
            def take(col):
                return map(col.__getitem__, index)
        keysets = self.keysets.values.__getitem__
        return zip(
            map(self.whos.values.__getitem__, take(self.who)),
            map(self.kinds.values.__getitem__, take(self.kind)),
            map(self.labels.values.__getitem__, take(self.label)),
            map(self.phases.values.__getitem__, take(self.phase)),
            take(self.iteration), take(self.start), take(self.end),
            map(keysets, take(self.ckey)), take(self.cval),
            map(keysets, take(self.xkey)), take(self.xval),
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every row's JSON form — default-valued fields omitted, counters in
        ``COUNTER_FIELDS`` order; :meth:`EventLog.emit_row` replays one."""
        out = []
        for ((lane, device), kind, label, phase, iteration, start, end,
             cnames, cvals, xkeys, xvals) in self.rows():
            row: Dict[str, Any] = {"lane": lane, "kind": kind, "label": label,
                                   "start": start, "end": end}
            if phase is not None:
                row["phase"] = phase
            if iteration is not None:
                row["iteration"] = iteration
            if device is not None:
                row["device"] = device
            if cnames:
                row.update(zip(cnames, cvals))
            if xkeys:
                row["extra"] = [[k, v] for k, v in zip(xkeys, xvals)]
            out.append(row)
        return out

    def __len__(self) -> int:
        return len(self.start)

    # ---------------------------------------------------- per-id fold views
    def lane_keys(self) -> List[Optional[str]]:
        """Per ``who`` id: the :func:`qualified_lane` key, ``None`` if lane-less."""
        return [qualified_lane(lane, device) if lane else None
                for lane, device in self.whos.values]

    def kinds_in(self, *kind_sets: frozenset) -> np.ndarray:
        """Per ``kind`` id: whether the kind is in any of ``kind_sets``."""
        return np.array([any(k in s for s in kind_sets)
                         for k in self.kinds.values], dtype=bool)


class EventLog:
    """The per-run event stream plus its incrementally maintained folds.

    Parameters
    ----------
    record:
        Retain every row in :attr:`events`.  Off (lean mode) by default:
        an emit folds into the counters and lane stats and nothing else
        happens, so benchmarks pay only the fold.

    Emission has one path — :meth:`_emit`, the fold plus (when recording)
    one :meth:`EventColumns.add` — behind four doors: :meth:`emit_op` (lane
    ops), :meth:`marker` / :meth:`marker_block` (instants) and
    :meth:`emit_row` (replaying a serialized row).  The first three reject
    bad input the same way in both modes: an unknown counter name is a
    ``TypeError``, an op ending before it starts a ``ValueError``.  The
    replay door takes rows as they are — :func:`validate_log` is what
    judges a foreign log.

    The log also carries the *emission context* — the engine phase and
    iteration installed by :meth:`~repro.gpusim.device.SimulatedGPU.phase`
    / :meth:`~repro.gpusim.device.SimulatedGPU.iteration` — which the
    doors stamp onto every row, replacing the old per-call ``phase=``
    string threading.
    """

    __slots__ = ("record", "events", "metrics", "lane_stats",
                 "current_phase", "current_iteration")

    def __init__(self, record: bool = False) -> None:
        self.record = record
        #: The retained rows (stays empty in lean mode).
        self.events = EventColumns()
        #: The legacy counter bundle, now a derived view: a running fold
        #: of every emitted row.
        self.metrics = Metrics()
        self.lane_stats: Dict[str, LaneStats] = {}
        self.current_phase: Optional[str] = None
        self.current_iteration: Optional[int] = None

    # ------------------------------------------------------------ emission
    def _emit(self, lane: str, kind: str, label: str, start: float,
              end: float, phase: Optional[str], iteration: Optional[int],
              device: Optional[int], counters: Optional[Mapping[str, Any]],
              extra: Tuple[Tuple[str, Any], ...]) -> None:
        """Fold one row into the counters; retain it when recording."""
        metrics = self.metrics
        if counters:
            for name, value in counters.items():
                if value:
                    setattr(metrics, name, getattr(metrics, name) + value)
        if phase is not None and end > start:
            metrics.add_phase(phase, end - start)
        if lane:
            key = lane if device is None else f"{lane}@{device}"
            stats = self.lane_stats.get(key)
            if stats is None:
                stats = self.lane_stats[key] = LaneStats()
            stats.busy_seconds += end - start
            stats.n_ops += 1
        if self.record:
            self.events.add(lane, kind, label, start, end, phase, iteration,
                            device, counters, extra)

    def emit_op(self, lane: str, kind: str, label: str, start: float,
                end: float, counters: Optional[Mapping[str, Any]] = None,
                extra: Tuple[Tuple[str, float], ...] = (),
                device: Optional[int] = None) -> None:
        """Emit one lane op, stamped with the current phase/iteration.

        The door behind :meth:`~repro.gpusim.stream.Lane.submit`.
        """
        if end < start:
            raise ValueError(f"{kind} {label!r} ends before it starts: "
                             f"[{start}, {end}]")
        if counters and not _COUNTER_SET.issuperset(counters):
            raise _unknown_counter(counters)
        self._emit(lane, kind, label, start, end, self.current_phase,
                   self.current_iteration, device, counters, extra)

    def emit_batch(self, lane: str, kind: str, label: str,
                   starts, ends,
                   counters: Optional[Mapping[str, Any]] = None,
                   device: Optional[int] = None) -> None:
        """Emit a column of same-lane, same-context ops, one row each.

        ``starts``/``ends`` are equal-length arrays, one op per row in
        emission order; ``counters`` maps counter names to per-op columns
        of the same length.  A loop over :meth:`_emit` — caller-less under
        ``src/``; kept because the benchmark harness binds it by name.

        Rows are emitted as given: callers must pre-filter empty ops
        (zero duration, no counters) exactly as :meth:`Lane.submit`
        short-circuits them.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        n = starts.size
        if ends.size != n:
            raise ValueError("starts/ends length mismatch")
        if (ends < starts).any():
            raise ValueError(f"{kind} {label!r}: an op ends before it starts")
        cols = {}
        if counters:
            if not _COUNTER_SET.issuperset(counters):
                raise _unknown_counter(counters)
            for name, col in counters.items():
                col = np.asarray(col)
                if col.shape != (n,):
                    raise ValueError(f"counter column {name!r} shape mismatch")
                cols[name] = col.tolist()
        phase, iteration = self.current_phase, self.current_iteration
        for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            self._emit(lane, kind, label, start, end, phase, iteration,
                       device, {name: col[i] for name, col in cols.items()},
                       ())

    def marker(self, kind: str, label: str, t: float,
               counters: Optional[Mapping[str, int]] = None,
               extra: Tuple[Tuple[str, float], ...] = (),
               device: Optional[int] = None) -> None:
        """Emit an instant (zero-width, lane-less) bookkeeping row.

        ``device`` attributes the marker to one device of a fabric log
        (it renders in that device's Chrome-trace process); the default
        ``None`` keeps single-device logs byte-identical.  A counter-less
        marker folds into nothing, so on a lean log it costs one branch.
        """
        if counters and not _COUNTER_SET.issuperset(counters):
            raise _unknown_counter(counters)
        if counters or self.record:
            self._emit("", kind, label, t, t, self.current_phase,
                       self.current_iteration, device, counters, extra)

    def marker_block(self, kind: str, labels: Sequence, t: float,
                     extra_keys: Tuple[str, ...] = (),
                     extra_cols: Sequence = (),
                     device: Optional[int] = None) -> None:
        """Emit ``len(labels)`` counter-less markers at one instant ``t``.

        Row ``i`` is ``marker(kind, labels[i], t, extra=zip(extra_keys,
        (col[i] for col in extra_cols)))`` — same rows, appended a column
        at a time (an access plan is tens of thousands of them).  Counter-
        less by signature: a block folds into nothing, so a lean log
        ignores it.
        """
        if len(extra_keys) != len(extra_cols) or any(
                len(col) != len(labels) for col in extra_cols):
            raise ValueError("extra_keys/extra_cols/labels shape mismatch")
        if self.record and len(labels):
            self.events.add_markers(kind, labels, t, self.current_phase,
                                    self.current_iteration, device,
                                    tuple(extra_keys), extra_cols)

    def emit_row(self, data: Mapping[str, Any]) -> None:
        """Replay one serialized row (its own phase/iteration) — the inverse
        of :meth:`EventColumns.to_dicts`."""
        row = dict(data)
        interval = [row.pop(name) for name in ("lane", "kind", "label",
                                               "start", "end")]
        context = [row.pop(name, None)
                   for name in ("phase", "iteration", "device")]
        extra = tuple((str(k), v) for k, v in row.pop("extra", None) or ())
        if not _COUNTER_SET.issuperset(row):
            raise ValueError(
                f"unknown row fields: {sorted(set(row) - _COUNTER_SET)}")
        self._emit(*interval, *context, row, extra)

    # -------------------------------------------------------------- views
    def busy_seconds(self, lane: str) -> float:
        stats = self.lane_stats.get(lane)
        return stats.busy_seconds if stats is not None else 0.0

    def idle_seconds(self, lane: str, horizon: float) -> float:
        """Idle time of ``lane`` within ``[0, horizon]`` (lean-mode fold)."""
        return max(horizon - self.busy_seconds(lane), 0.0)

    def spans(self) -> List[Span]:
        """The lane timeline as spans (requires recorded mode)."""
        self._require_recorded("spans()")
        return fold_spans(self.events)

    def _require_recorded(self, what: str) -> None:
        if not self.record:
            raise EventLogError(
                f"{what} needs a recorded EventLog; this log runs in lean "
                "mode (construct the engine/GPU with record_events=True)"
            )


def _unknown_counter(counters: Mapping[str, Any]) -> TypeError:
    return TypeError(
        f"unknown counter field {min(set(counters) - _COUNTER_SET)!r}")


# ------------------------------------------------------------------- folds
def fold_metrics(cols: EventColumns) -> Metrics:
    """Replay a log's rows into a fresh counter bundle.

    NumPy picks the rows that carry counters or phase time; the additions
    then run one row at a time in row order, exactly as the emit-time fold
    made them.  So on a recorded log this reproduces ``log.metrics``
    bit-identically — the property :func:`validate_log` asserts.
    """
    metrics = Metrics()
    counted = np.array(cols.ckey) != 0
    phase, start, end = (np.array(cols.phase), np.array(cols.start),
                         np.array(cols.end))
    timed = (phase != 0) & (end > start)
    ckey, cval, keysets = cols.ckey, cols.cval, cols.keysets.values
    for i in np.flatnonzero(counted).tolist():
        for name, value in zip(keysets[ckey[i]], cval[i]):
            setattr(metrics, name, getattr(metrics, name) + value)
    phases = cols.phases.values
    for p, seconds in zip(phase[timed].tolist(),
                          (end[timed] - start[timed]).tolist()):
        metrics.add_phase(phases[p], seconds)
    return metrics


def _lane_rows(cols: EventColumns) -> Tuple[np.ndarray, np.ndarray]:
    """``(row indices, who ids)`` of the lane-occupying rows."""
    who = np.array(cols.who)
    has_lane = np.array([bool(lane) for lane, _ in cols.whos.values],
                        dtype=bool)
    rows = np.flatnonzero(has_lane[who])
    return rows, who[rows]


def fold_spans(cols: EventColumns) -> List[Span]:
    """The span timeline: one span per lane-occupying row."""
    return [
        Span(lane=qualified_lane(lane, device), label=label, start=start,
             end=end)
        for (lane, device), _, label, _, _, start, end, *_
        in cols.rows()
        if lane and end > start
    ]


def fold_lane_stats(cols: EventColumns) -> Dict[str, LaneStats]:
    """Per-lane busy/op aggregates, identical to the emit-time fold."""
    rows, who = _lane_rows(cols)
    keys = cols.lane_keys()
    stats: Dict[str, LaneStats] = {}
    for w, start, end in zip(who.tolist(),
                             np.array(cols.start)[rows].tolist(),
                             np.array(cols.end)[rows].tolist()):
        st = stats.get(keys[w])
        if st is None:
            st = stats[keys[w]] = LaneStats()
        st.busy_seconds += end - start
        st.n_ops += 1
    return stats


def fold_device_faults(
        cols: EventColumns) -> Dict[Optional[int], Dict[str, int]]:
    """Per-device fault/recovery counts from a recorded log.

    Counts every :data:`FAULT_KINDS` / :data:`DEVICE_FAULT_KINDS` row
    under its device (``None`` for device-less rows), keyed
    ``fault_<kind>`` to match the ``fault_*`` naming of
    ``RunResult.extra``.  A fault-free log folds to ``{}``, so asserting
    byte-identical single-device behaviour stays a one-liner.
    """
    out: Dict[Optional[int], Dict[str, int]] = {}
    kind = np.array(cols.kind)
    rows = np.flatnonzero(cols.kinds_in(FAULT_KINDS, DEVICE_FAULT_KINDS)[kind])
    whos, kinds = cols.whos.values, cols.kinds.values
    for w, k in zip(np.array(cols.who)[rows].tolist(), kind[rows].tolist()):
        bucket = out.setdefault(whos[w][1], {})
        key = "fault_" + kinds[k].replace("-", "_")
        bucket[key] = bucket.get(key, 0) + 1
    return out


def idle_breakdown(
        log: "EventLog | EventColumns", lane: str,
        horizon: float) -> IdleBreakdown:
    """Attribute a lane's idle time to lead / stalls / tail.

    The old ``horizon - busy_seconds`` subtraction could not tell a lane
    that simply *started late* (e.g. the GPU waiting for the one-time
    vertex-state upload) from one stalling mid-run (§2.2's sequential
    pipeline).  Works on a recorded :class:`EventLog` or its columns.
    """
    cols = log
    if isinstance(log, EventLog):
        log._require_recorded("idle_breakdown()")
        cols = log.events
    rows, who = _lane_rows(cols)
    mine = np.array([key == lane for key in cols.lane_keys()], dtype=bool)
    start, end = np.array(cols.start)[rows], np.array(cols.end)[rows]
    keep = mine[who] & (end > start)
    rows, start, end = rows[keep], start[keep], end[keep]
    ops = sorted(zip(start.tolist(), end.tolist()))
    wasted = cols.kinds_in(FAULT_KINDS)[np.array(cols.kind)[rows]]
    retry = ordered_sum(
        min(e, horizon) - min(s, horizon)
        for s, e in zip(start[wasted].tolist(), end[wasted].tolist())
    )
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    if not ops:
        return IdleBreakdown(lead=horizon, stall=0.0, tail=0.0,
                             busy=0.0, horizon=horizon)
    lead = min(ops[0][0], horizon)
    busy = 0.0
    stall = 0.0
    prev_end = ops[0][0]
    for start, end in ops:
        if start > prev_end:
            stall += min(start, horizon) - min(prev_end, horizon)
        busy += min(end, horizon) - min(start, horizon)
        prev_end = max(prev_end, end)
    tail = max(horizon - prev_end, 0.0)
    return IdleBreakdown(lead=lead, stall=stall, tail=tail,
                         busy=busy, horizon=horizon, retry=retry)


# -------------------------------------------------------------- validation
def validate_log(
    log: EventLog,
    metrics: Optional[Metrics] = None,
    horizon: Optional[float] = None,
) -> Metrics:
    """Assert the event log's consistency invariants; returns the re-fold.

    Checks, raising :class:`EventLogError` on the first violation:

    * every row is well-formed (``start <= end``, non-negative times);
    * per lane, rows are monotone and **never self-overlap** (a lane is
      one serially-ordered engine);
    * instant rows occupy no lane;
    * re-folding the retained rows reproduces the incrementally
      maintained ``log.metrics`` **bit-identically** (counters *and*
      ``phase_seconds``), and likewise the per-lane stats;
    * when ``metrics`` is given (e.g. a ``RunResult.metrics``), it equals
      the fold too;
    * when ``horizon`` is given, no row ends after it.
    """
    log._require_recorded("validate_log()")
    cols = log.events
    _require_well_formed(cols, horizon)

    folded = fold_metrics(cols)
    _require_metrics_equal(folded, log.metrics, "incrementally folded metrics")
    if metrics is not None and metrics is not log.metrics:
        _require_metrics_equal(folded, metrics, "reported metrics")

    refolded_stats = fold_lane_stats(cols)
    if set(refolded_stats) != set(log.lane_stats):
        raise EventLogError(
            f"lane set mismatch: fold has {sorted(refolded_stats)}, "
            f"log has {sorted(log.lane_stats)}"
        )
    for lane, st in refolded_stats.items():
        have = log.lane_stats[lane]
        if st.busy_seconds != have.busy_seconds or st.n_ops != have.n_ops:
            raise EventLogError(f"lane {lane!r}: folded stats diverge")
    return folded


def _require_well_formed(cols: EventColumns, horizon: Optional[float]) -> None:
    """The per-row checks of :func:`validate_log`, first offender reported."""
    start, end = np.array(cols.start), np.array(cols.end)
    rows, who = _lane_rows(cols)
    laneless = np.ones(len(cols), dtype=bool)
    laneless[rows] = False
    # A lane row overlaps when it starts before the previous row of the
    # same lane ended: a stable sort by lane puts that row right before it.
    order = np.argsort(who, kind="stable")
    by_lane, same = rows[order], who[order][1:] == who[order][:-1]
    prev_end = np.full(len(cols), -np.inf)
    prev_end[by_lane[1:][same]] = end[by_lane[:-1][same]]
    bad = ((start < 0) | (end < start) | (laneless & (end != start))
           | (start < prev_end))
    if horizon is not None:
        bad |= end > horizon
    if not bad.any():
        return
    i = int(np.argmax(bad))
    (lane, device), kind, label, *_ = next(cols.rows(slice(i, i + 1)))
    s, e = cols.start[i], cols.end[i]
    where = f"event #{i} ({kind} {label!r})"
    if s < 0 or e < s:
        raise EventLogError(f"{where}: bad interval [{s}, {e}]")
    if horizon is not None and e > horizon:
        raise EventLogError(f"{where}: ends at {e} beyond horizon {horizon}")
    if not lane:
        raise EventLogError(f"{where}: lane-less event has width")
    raise EventLogError(
        f"{where}: lane {qualified_lane(lane, device)!r} self-overlaps "
        f"(starts at {s} before previous end {float(prev_end[i])})"
    )


def _require_metrics_equal(folded: Metrics, other: Metrics, what: str) -> None:
    for name in COUNTER_FIELDS:
        a, b = getattr(folded, name), getattr(other, name)
        if a != b:
            raise EventLogError(
                f"{what} diverge on {name}: fold={a} counters={b}"
            )
    if dict(folded.phase_seconds) != dict(other.phase_seconds):
        raise EventLogError(
            f"{what} diverge on phase_seconds: "
            f"fold={dict(folded.phase_seconds)} counters={dict(other.phase_seconds)}"
        )
