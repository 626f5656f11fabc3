"""Content-addressed result cache for simulation runs.

A simulation is a pure function of (machine configuration, trace,
enhancement settings, simulator version): the same inputs always
produce the same :class:`~repro.cpu.stats.CoreStats`.  That makes
results safe to memoise by a content hash of the inputs —
:func:`task_key` computes it, :class:`ResultCache` stores the stats.

The cache has two layers: an in-memory dict (always on) and an
optional on-disk **segment**, ``<path>/segment.jsonl``: one
append-only file in the :mod:`repro.exec.journal` line format,
appended by the journal's record (a :mod:`repro.guard.lines`
appender).  On first use every line is checked by the journal's
codec and the valid ones are indexed by offset; a line is unpickled
when its key is first looked up, so opening a large shared segment
costs a scan, not a copy of every run's statistics.  Enhancement
analyses, iterative refinement and repeated benchmark sessions all
hit the same keys, so the second time a configuration is measured it
costs a dictionary lookup instead of a full pipeline simulation.

Every line carries its payload checksum and the ``SIMULATOR_VERSION``
it was measured under.  A damaged line — torn, malformed, checksum
mismatch, unpicklable — is dropped, counted per reason and reported
as a miss: nothing invalid is ever trusted.  A line measured under
another simulator version is normal traffic in a shared segment (its
key was salted with that version, so it is never looked up): it is
skipped without being counted.  ``repro gc --compact-journal DIR``
rewrites the segment without either kind.  Many runs may share one
cache directory; a concurrent run's appends become visible at the
next open (not on a miss), which at worst re-simulates a cell, never
returns a wrong one.

One-file-per-key caches (``<key>.pkl`` entries written by earlier
versions) are not read: a directory holding them draws one
:class:`RuntimeWarning` per open and the entries are ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import warnings
import weakref
from functools import partial
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cpu import SIMULATOR_VERSION
from repro.cpu.stats import CoreStats
from repro.guard import lines

from .journal import Journal, _check_line, _parse_line

#: File name of the on-disk segment inside a cache directory.
SEGMENT_NAME = "segment.jsonl"


class _Unread:
    """Where a loaded segment line sits, until its first :meth:`get
    <_Segment.get>` unpickles it."""

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int):
        self.start = start
        self.length = length


class _Segment(Journal):
    """A cache directory's segment: a journal whose lines of other
    simulator versions are inert rather than damage, and whose lines
    are unpickled on first :meth:`get` — a shared segment holds every
    run's cells, and a run needs only its own.

    Loading checks every line (envelope, version, checksum) and
    indexes the valid ones by offset in the file as it was opened;
    the handle stays open, so a later rewrite by compaction cannot
    move a line under the index.
    """

    def _load(self) -> None:
        self._reader = open(self.path, "rb")
        data = self._reader.read()
        scan, rows = lines.scan(
            self.path, partial(_check_line, version=self.version),
            data=data)
        for _lineno, start, raw, (key, _blob) in rows:
            self._entries[key] = _Unread(data.find(raw, start), len(raw))
        for _lineno, reason in scan.invalid:
            if reason != "version-drift":
                self._drop(reason)
        self._warn_dropped()

    def _repair_hint(self) -> str:
        return (f"run 'repro gc --compact-journal {self.path.parent}' "
                "to drop them")

    def get(self, key: str):
        stats = self._entries.get(key)
        if type(stats) is _Unread:
            line = os.pread(self._reader.fileno(), stats.length,
                            stats.start)
            entry, reason = _parse_line(line, self.version)
            if reason is None and entry[0] == key:
                stats = self._entries[key] = entry[1]
            else:
                del self._entries[key]
                self._drop(reason or "malformed")
                self._warn_dropped()
                stats = None
        return stats

    def close(self) -> None:
        reader = getattr(self, "_reader", None)
        if reader is not None:
            reader.close()
        super().close()


def canonicalize(value):
    """``value`` reduced to a canonical, JSON-ready form.

    Cache keys must be a pure function of configuration *content*, so
    every representation accident is normalized away before hashing:

    * mappings are rebuilt with keys in sorted order (two dicts built
      in different insertion orders hash identically) and rejected if
      any key is not a string — non-string keys invite ``1`` vs
      ``"1"`` aliasing under JSON;
    * sets and frozensets become sorted lists, tuples become lists;
    * ``-0.0`` is normalized to ``0.0`` (distinct bit patterns, equal
      values — they must share a cache entry);
    * NaN and the infinities are **rejected** with :class:`ValueError`:
      no meaningful machine configuration contains them, NaN breaks
      equality-based canonicalization (``nan != nan``), and JSON has
      no portable encoding for any of the three;
    * other non-JSON scalars fall back to ``str()`` (enums, paths),
      matching the previous behaviour of ``json.dumps(default=str)``.
    """
    if isinstance(value, dict):
        keys = list(value.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValueError(
                "cache-key mappings must have string keys, got "
                f"{sorted(type(k).__name__ for k in keys)}"
            )
        return {k: canonicalize(value[k]) for k in sorted(keys)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(v) for v in value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(
                f"non-finite float {value!r} cannot enter a cache key"
            )
        return 0.0 if value == 0.0 else value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def canonical_blob(payload) -> bytes:
    """The canonical serialized form a cache key hashes.

    Exposed separately from :func:`task_key` so tests (and external
    tools building compatible keys) can assert on the exact bytes.
    """
    return json.dumps(
        canonicalize(payload), sort_keys=True, allow_nan=False,
        separators=(",", ":"),
    ).encode("utf-8")


def core_family(core: str) -> str:
    """The cache-key family of a simulator core.

    Every name but ``reference`` — ``batched``, ``batched-native``,
    and names of cores earlier versions had — maps to ``"batched"``,
    so keys recorded under any of them stay valid.  That family holds
    whatever ``batched`` resolved to: compiled-kernel results, or
    reference results on a host without the kernel.  Sharing is sound
    because the two are field-exact equivalent, enforced by
    :mod:`repro.cpu.equivalence`.  An explicit ``reference`` run is
    its own family: the oracle is the arbiter the kernel is checked
    *against*, so its measurements must never be satisfied from (or
    leak into) ``batched`` entries — otherwise a kernel bug could
    silently poison the oracle's results through the cache, and a
    differential run would compare a core against itself.
    """
    return "reference" if core == "reference" else "batched"


def task_key(task, *, version: str = SIMULATOR_VERSION) -> str:
    """Content hash of one :class:`~repro.exec.engine.SimTask`.

    The key covers every input the simulator's output depends on: all
    :class:`~repro.cpu.MachineConfig` field values, the trace's content
    fingerprint (arrays + name), the enhancement settings (precompute
    table contents, prefetch lines), the warmup discipline, the
    simulator ``version`` tag, and the :func:`core_family` of the
    task's simulator core.  Changing any of them — including bumping
    :data:`~repro.cpu.SIMULATOR_VERSION` after a timing-model change —
    yields a different key, so stale entries are simply never found
    rather than needing explicit invalidation.  The core enters only
    as its normalized family: ``batched`` and ``batched-native`` share
    entries, while the reference oracle's entries stay segregated
    (cache-level cross-contamination would defeat differential
    testing).

    Results are stored as full :class:`CoreStats`, so the response
    function an experiment applies (cycles, energy, ...) does not enter
    the key: one cached measurement serves every response definition.
    """
    payload = {
        "version": str(version),
        "config": _config_fields(task.config),
        "trace": task.trace.fingerprint(),
        "precompute_table": (
            sorted(task.precompute_table)
            if task.precompute_table is not None else None
        ),
        "prefetch_lines": task.prefetch_lines,
        "warmup": task.warmup,
        "core": core_family(getattr(task, "core", "batched")),
    }
    return hashlib.sha256(canonical_blob(payload)).hexdigest()


#: ``id(obj) -> (weak reference to obj, its fields)`` for the
#: configurations :func:`task_key` has seen and that are still alive.
#: Keyed by identity, not equality: equal objects may still encode
#: differently (``1`` vs ``1.0``).  An entry leaves with its object,
#: so the memo never outgrows the live configurations.
_fields_memo: Dict[int, Tuple[weakref.ref, Dict[str, object]]] = {}


def _config_fields(obj) -> Dict[str, object]:
    """``dataclasses.asdict(obj)`` for a frozen dataclass (a
    :class:`~repro.cpu.MachineConfig`), memoized per object: a screen
    keys each of its 88 configurations once per benchmark, and
    ``asdict`` is most of a key's cost.  The mapping is shared with
    the memo; :func:`canonical_blob` only reads it."""
    key = id(obj)
    entry = _fields_memo.get(key)
    if entry is None:
        fields = dataclasses.asdict(obj)
        try:
            ref = weakref.ref(obj, lambda _: _fields_memo.pop(key, None))
        except TypeError:  # no __weakref__ slot: convert every time
            return fields
        entry = _fields_memo[key] = (ref, fields)
    return entry[1]


class ResultCache:
    """Memoised simulation results, optionally persisted to disk.

    Parameters
    ----------
    path:
        Directory for the on-disk segment (created if missing).
        ``None`` keeps the cache purely in-memory — still useful
        within one process (e.g. iterative refinement revisiting
        configurations).
    version:
        The simulator version segment lines must have been measured
        under (default :data:`~repro.cpu.SIMULATOR_VERSION`).  Task
        keys already salt the version; the line's own ``sim`` field
        is what proves the *content* matches, so a line of another
        version is never returned (and, being normal in a shared
        segment, never counted as damage).

    Attributes
    ----------
    hits / misses:
        Lookup counters, for instrumentation and tests.
    legacy_entries:
        One-file ``*.pkl`` entries of the earlier format found in
        ``path`` at open; they are never read.
    put_failures:
        Failed :meth:`put` calls (disk full, read-only directory).
        The execution engine increments this when a write raises, and
        stops attempting writes to a cache whose counter is non-zero
        — the counter *is* the "cache writes are down" flag, shared
        across every grid using the cache instance.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 *, version: str = SIMULATOR_VERSION):
        self.path = Path(path) if path is not None else None
        self.version = str(version)
        self.hits = 0
        self.misses = 0
        self.put_failures = 0
        self._memory: Dict[str, CoreStats] = {}
        self._segment: Optional[Journal] = None
        legacy = []
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            legacy = [entry.name
                      for entry in sorted(self.path.glob("*.pkl"))]
        self.legacy_entries = len(legacy)
        if legacy:
            warnings.warn(
                f"result cache {self.path}: ignoring {len(legacy)} "
                "one-file entr(y/ies) of the earlier format "
                f"({legacy[0]}, ...); results now live in "
                f"{SEGMENT_NAME}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _load(self) -> None:
        """Open the segment — once, on first use.  Its index becomes
        the in-memory layer, so no cell is held twice."""
        if self.path is not None and self._segment is None:
            self._segment = _Segment(self.path / SEGMENT_NAME,
                                     version=self.version)
            self._memory = self._segment._entries

    @property
    def corrupt(self) -> int:
        """Damaged segment lines dropped (total across reasons),
        counted when the segment is read — an unpicklable payload
        when its key is first looked up; lines of other simulator
        versions are not damage and are not counted."""
        return self._segment.corrupt if self._segment is not None else 0

    @property
    def dropped(self) -> Dict[str, int]:
        """Per-reason breakdown of :attr:`corrupt` (``checksum``,
        ``torn``, ``unpicklable``, ...), the journal's reason
        slugs."""
        return dict(self._segment.dropped) \
            if self._segment is not None else {}

    def counters(self) -> dict:
        """The bookkeeping counters as a plain mapping.

        Keys (``corrupt``, ``hits``, ``misses``, ``put_failures``) are
        stable — this is the shape the metrics registry
        (:mod:`repro.obs.metrics`) surfaces under ``cache.*``.
        """
        return {
            "corrupt": self.corrupt,
            "hits": self.hits,
            "misses": self.misses,
            "put_failures": self.put_failures,
        }

    def _lookup(self, key: str) -> Optional[CoreStats]:
        self._load()
        if self._segment is None:
            return self._memory.get(key)
        return self._segment.get(key)

    def get(self, key: str) -> Optional[CoreStats]:
        """The cached stats for ``key``, or ``None`` on a miss."""
        stats = self._lookup(key)
        if stats is None:
            self.misses += 1
        else:
            self.hits += 1
        return stats

    def put(self, key: str, stats: CoreStats) -> None:
        """Store ``stats`` under ``key`` (idempotent per key).

        On disk this is :meth:`Journal.record
        <repro.exec.journal.Journal.record>` on the segment: one
        flushed line, appended under an exclusive ``flock`` through
        the fault seam and rolled back on any ``OSError``.  A key the
        cache already holds appends nothing.  A persistent fault
        propagates so the engine's ``put_failures`` accounting (the
        "cache writes are down" switch) can degrade loudly.
        """
        self._load()
        if self._segment is None:
            self._memory[key] = stats
        else:
            self._segment.record(key, stats)

    def __contains__(self, key: str) -> bool:
        """Membership that agrees with :meth:`get`: a segment line
        whose payload does not load is not held."""
        return self._lookup(key) is not None

    def __len__(self) -> int:
        """Number of distinct keys held."""
        self._load()
        return len(self._memory)
