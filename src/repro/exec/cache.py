"""Content-addressed result cache for simulation runs.

A simulation is a pure function of (machine configuration, trace,
enhancement settings, simulator version): the same inputs always
produce the same :class:`~repro.cpu.stats.CoreStats`.  That makes
results safe to memoise by a content hash of the inputs —
:func:`task_key` computes it, :class:`ResultCache` stores the stats.

The cache has two layers: an in-memory dict (always on) and an
optional on-disk directory of pickled stats, one file per key, written
atomically so concurrent runs sharing a cache directory never read a
torn entry.  Enhancement analyses, iterative refinement and repeated
benchmark sessions all hit the same keys, so the second time a
configuration is measured it costs a dictionary lookup or one small
file read instead of a full pipeline simulation.

On-disk entries are **sealed** (:mod:`repro.guard.seal`): each file
carries a header naming its kind, schema version, the
``SIMULATOR_VERSION`` it was measured under, and a content checksum.
A loader that finds anything wrong — corruption, truncation, a bare
legacy pickle, an entry written under a different simulator version
(possible despite key salting via hand edits or migrated directories)
— **quarantines** the file under ``<cache>/quarantine/`` with the
failure reason in its name, counts it per reason, and reports a miss.
Nothing is silently deleted and, more importantly, nothing invalid is
ever trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import weakref
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

from repro.cpu import SIMULATOR_VERSION
from repro.cpu.stats import CoreStats
from repro.guard import fsfault, retention
from repro.guard.errors import SealError, StatsInvalid
from repro.guard.seal import check as check_seal, seal as make_seal

#: Format version of one sealed cache entry (the ``schema`` field of
#: its seal header).  v1 was the bare pickle written before sealing
#: existed; bare pickles are now quarantined as ``unsealed``.
CACHE_ENTRY_SCHEMA = 2

#: Seal ``kind`` tag for result-cache entries.
CACHE_ENTRY_KIND = "result-cache"

#: Default cap on the quarantine directory, in entries.  Repeated
#: corruption (a flaky disk, a byte-flipping NFS client) must not
#: grow ``<cache>/quarantine/`` without bound; the newest evidence is
#: kept, the oldest pruned, every prune counted.  ``None`` disables.
QUARANTINE_BUDGET_ENTRIES = 256


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
        Directory for the on-disk layer (created if missing).  ``None``
        keeps the cache purely in-memory — still useful within one
        process (e.g. iterative refinement revisiting configurations).
    version:
        The simulator version entries must have been measured under
        (default :data:`~repro.cpu.SIMULATOR_VERSION`).  Task keys
        already salt the version, but the key is only the file *name*;
        the seal inside the file is what proves the *content* matches
        — a renamed, hand-edited or migrated entry fails here.
    budget_bytes / budget_entries:
        Disk budget for the on-disk layer (``None`` = unbounded).
        After every put, least-recently-used entries are evicted
        until the directory fits — except keys this process has
        touched (:attr:`pinned`), which are never evicted: an
        in-flight run's working set outranks the budget.
    quarantine_entries:
        Cap on the quarantine directory
        (:data:`QUARANTINE_BUDGET_ENTRIES` by default; ``None``
        disables).  Oldest quarantined files are pruned first and
        counted in :attr:`quarantine_pruned`.

    Attributes
    ----------
    hits / misses:
        Lookup counters, for instrumentation and tests.
    corrupt:
        Invalid on-disk entries encountered (each is quarantined and
        treated as a miss); the total across all reasons.
    quarantined:
        Per-reason breakdown of :attr:`corrupt` (``checksum``,
        ``truncated``, ``unsealed``, ``version-drift``, ...), the
        reason slugs of :mod:`repro.guard.errors`.
    put_failures:
        Failed :meth:`put` calls (disk full, read-only directory).
        The execution engine increments this when a write raises, and
        stops attempting writes to a cache whose counter is non-zero
        — the counter *is* the "cache writes are down" flag, shared
        across every grid using the cache instance.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 *, version: str = SIMULATOR_VERSION,
                 budget_bytes: Optional[int] = None,
                 budget_entries: Optional[int] = None,
                 quarantine_entries: Optional[int] =
                 QUARANTINE_BUDGET_ENTRIES):
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self.version = str(version)
        self.budget_bytes = budget_bytes
        self.budget_entries = budget_entries
        self.quarantine_entries = quarantine_entries
        self._memory: dict = {}
        #: Keys this process has touched (get/put) — never evicted.
        self.pinned: Set[str] = set()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.put_failures = 0
        self.evicted = 0
        self.quarantine_pruned = 0
        self.quarantined: Dict[str, int] = {}

    def counters(self) -> dict:
        """The bookkeeping counters as a plain mapping.

        Keys (``hits``, ``misses``, ``corrupt``, ``put_failures``,
        ``quarantined``, ``evicted``, ``quarantine_pruned``) are
        stable — this is the shape the metrics registry
        (:mod:`repro.obs.metrics`) surfaces under ``cache.*``.
        ``quarantined`` equals ``corrupt`` (it is the same total,
        kept under the name the quarantine directory uses); the
        per-reason breakdown lives in :attr:`quarantined`.
        """
        return {
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "hits": self.hits,
            "misses": self.misses,
            "put_failures": self.put_failures,
            "quarantine_pruned": self.quarantine_pruned,
            "quarantined": sum(self.quarantined.values()),
        }

    def _file(self, key: str) -> Path:
        return self.path / f"{key}.pkl"

    def _quarantine(self, file: Path, key: str, reason: str) -> None:
        """Move a bad entry aside, named after its failure reason.

        ``<cache>/quarantine/<key>.<reason>.pkl`` — out of the lookup
        path (so it can never be trusted again) but preserved for
        diagnosis (``repro verify`` lists quarantined entries by
        reason).  If even the move fails the entry is deleted: an
        invalid file must never remain where ``get`` would retry it
        forever.
        """
        self.corrupt += 1
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1
        try:
            directory = self.path / "quarantine"
            directory.mkdir(exist_ok=True)
            os.replace(file, directory / f"{key}.{reason}.pkl")
        except OSError:
            file.unlink(missing_ok=True)
            return
        if self.quarantine_entries is not None:
            pruned = retention.gc_quarantine(
                directory, budget_entries=self.quarantine_entries,
            )
            self.quarantine_pruned += pruned.quarantine_pruned

    def _load_disk(self, key: str) -> Optional[CoreStats]:
        """Validate and load one on-disk entry (shared by ``get`` and
        ``__contains__`` so both agree on what counts as present).

        An entry that fails its seal check (torn, truncated, legacy
        unsealed, simulator-version drift), fails to unpickle, or
        carries numerically broken statistics is quarantined with its
        reason, counted, and reported as absent.
        """
        if self.path is None:
            return None
        file = self._file(key)
        try:
            blob = file.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            payload = check_seal(
                blob, kind=CACHE_ENTRY_KIND, schema=CACHE_ENTRY_SCHEMA,
                simulator_version=self.version,
            )
        except SealError as exc:
            self._quarantine(file, key, exc.reason)
            return None
        try:
            stats = pickle.loads(payload)
        except Exception:
            self._quarantine(file, key, "unpicklable")
            return None
        validate = getattr(stats, "validate", None)
        if callable(validate):
            try:
                validate()
            except StatsInvalid:
                self._quarantine(file, key, "invalid-stats")
                return None
        self._memory[key] = stats
        self.pinned.add(key)
        # Refresh the entry's recency so budget eviction is true LRU:
        # "old" means unused, not merely written long ago.
        try:
            os.utime(file)
        except OSError:
            pass
        return stats

    def get(self, key: str) -> Optional[CoreStats]:
        """The cached stats for ``key``, or ``None`` on a miss."""
        if key in self._memory:
            self.hits += 1
            self.pinned.add(key)
            return self._memory[key]
        stats = self._load_disk(key)
        if stats is not None:
            self.hits += 1
            return stats
        self.misses += 1
        return None

    def put(self, key: str, stats: CoreStats) -> None:
        """Store ``stats`` under ``key`` in both layers (sealed on disk).

        The on-disk write goes through the sanctioned atomic-publish
        seam (:func:`repro.guard.fsfault.publish_bytes`): under an
        I/O fault — injected or real — the entry name is never
        visible torn, and the ``OSError`` propagates so the engine's
        ``put_failures`` accounting (the "cache writes are down"
        switch) can degrade loudly.  A successful put then enforces
        the disk budget, evicting LRU entries not pinned by this
        process.
        """
        self._memory[key] = stats
        self.pinned.add(key)
        if self.path is not None:
            blob = make_seal(
                pickle.dumps(stats, pickle.HIGHEST_PROTOCOL),
                kind=CACHE_ENTRY_KIND, schema=CACHE_ENTRY_SCHEMA,
                simulator_version=self.version,
            )
            fsfault.publish_bytes(self._file(key), blob)
            self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict LRU unpinned entries until the budget is met."""
        if self.budget_bytes is None and self.budget_entries is None:
            return
        report = retention.gc_cache(
            self.path, budget_bytes=self.budget_bytes,
            budget_entries=self.budget_entries, pinned=self.pinned,
        )
        self.evicted += report.cache_evicted

    def __contains__(self, key: str) -> bool:
        """Membership that agrees with :meth:`get`.

        An on-disk file only counts if it actually loads: a torn entry
        (which ``get`` would delete and miss on) must not answer
        ``True`` here, or callers would skip work they still need to
        do.
        """
        if key in self._memory:
            return True
        return self._load_disk(key) is not None

    def __len__(self) -> int:
        """Number of distinct entries across both layers."""
        keys = set(self._memory)
        if self.path is not None:
            keys.update(f.stem for f in sorted(self.path.glob("*.pkl")))
        return len(keys)
