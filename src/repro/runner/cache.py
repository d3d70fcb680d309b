"""Content-addressed on-disk cache for finished grid cells.

The paper's thesis is that most data survives from one iteration to the
next; the experiment harness has the same structure one level up — most
grid cells survive from one *session* to the next.  This cache closes that
loop: a cell whose :class:`~repro.runner.spec.RunSpec` hashes to an entry
written by an earlier session is *replayed* (bit-identically — see
:func:`repro.harness.persistence.result_to_payload`) instead of recomputed.

Layout: one JSON file per cell, ``<root>/<cache_key>.json``, containing

* the spec (``RunSpec.to_dict``) for human inspection,
* the repro *code version* (a content hash over the package sources),
* the full result payload.

The code version is stored *inside* the entry rather than mixed into the
file name so that a source change shows up as a counted **invalidation**
(the stale entry is detected and overwritten) instead of a silent miss
that slowly leaks orphaned files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.harness.persistence import result_from_payload, result_to_payload
from repro.engines.base import RunResult
from repro.runner.spec import RunSpec

__all__ = ["CacheStats", "ResultCache", "code_version"]

PathLike = Union[str, "os.PathLike[str]"]

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash over the installed ``repro`` package sources.

    Any edit to any module changes it, conservatively invalidating every
    cached cell — correctness over reuse.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode("utf-8"))
            h.update(path.read_bytes())
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one runner session."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.invalidations} invalidation(s), {self.stores} store(s)"
        )


@dataclass
class ResultCache:
    """Persistent spec → result store under ``root``.

    ``version`` defaults to :func:`code_version`; tests pin it to exercise
    invalidation without editing sources.
    """

    root: PathLike
    version: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(os.fspath(self.root))
        self.root.mkdir(parents=True, exist_ok=True)
        if self.version is None:
            self.version = code_version()

    def path_for(self, spec: RunSpec) -> Path:
        """On-disk location of ``spec``'s entry (may not exist)."""
        return Path(self.root) / f"{spec.cache_key()}.json"

    def lookup(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` (counted).

        A present-but-stale entry (different code version, unreadable
        file, or payload mismatch) counts as both an invalidation and a
        miss; the caller recomputes and :meth:`store` overwrites it.
        """
        path = self.path_for(spec)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if entry.get("code_version") != self.version:
                raise _StaleEntry
            result = result_from_payload(entry["result"])
        except (_StaleEntry, KeyError, ValueError, json.JSONDecodeError):
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, spec: RunSpec, result: RunResult) -> Path:
        """Write ``result`` under ``spec``'s key (atomic replace)."""
        path = self.path_for(spec)
        entry = {
            "code_version": self.version,
            "spec": spec.to_dict(),
            "result": result_to_payload(result),
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
        self.stats.stores += 1
        return path


class _StaleEntry(Exception):
    """Internal marker: entry present but written by other code."""
