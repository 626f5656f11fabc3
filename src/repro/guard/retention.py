"""Retention GC for the durable artifact stores.

Results live in append-only files of the journal line format
(:mod:`repro.exec.journal`): a run directory's ``journal.jsonl`` and
a result-cache directory's ``segment.jsonl``.  A distributed run also
leaves sealed result files in its spool.  All of them grow without
bound under a long-lived experiment service.  This module is the
reclamation layer — the *only* code in the tree allowed to delete a
valid artifact — and it keeps two rules:

* **A valid cell is never lost.**  Compaction validates every line
  with the journal's own loader, at the simulator version the file's
  reader loads it at (a run's journal: the version its manifest
  records), and keeps the last valid line per key, so that load
  answers the same before and after.  A spool result
  is removed only once the run's journal validly holds its key, and
  never while the key is still in flight.
* **Everything is reported.**  :class:`GCReport` counts dropped lines
  per reason and per file, freed bytes and removed spool files;
  ``repro gc --dry-run`` prints the same report without deleting
  anything.

Deletions route through plain ``unlink`` (removal needs no atomic
publish); the one rewrite — compaction — publishes the compacted file
through :func:`repro.guard.faults.publish_bytes`, so a crash
mid-compaction leaves the original file untouched.  The rewrite
replaces the file by rename: a process still appending to the old
file loses those later lines (their cells re-simulate when next
needed; nothing wrong is ever read), so compact stores no run is
writing to.

Surfaced as ``repro gc`` and ``repro cache stats``; the distributed
broker calls :func:`gc_spool` inline so a long-lived spool stays
bounded without an operator cron job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.cpu import SIMULATOR_VERSION

from . import faults
from .errors import SealError

__all__ = [
    "CacheStats",
    "GCReport",
    "cache_stats",
    "compact_journal",
    "gc_run_dir",
    "gc_spool",
    "journal_keys",
    "spool_inflight_keys",
]


def _dir_entries(directory: Path, pattern: str) \
        -> List[Tuple[Path, int, float]]:
    """``(path, size, mtime)`` per match, oldest first (mtime, then
    name, so ties break deterministically)."""
    entries = []
    for path in sorted(directory.glob(pattern)):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((path, stat.st_size, stat.st_mtime))
    entries.sort(key=lambda entry: (entry[2], entry[0].name))
    return entries


# -- inventory ------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """What one cache directory holds (``repro cache stats``):
    ``entries`` valid segment lines out of ``lines``, the segment's
    size, its invalid lines per reason, and the legacy ``*.pkl``
    files the cache ignores."""

    path: Path
    entries: int
    lines: int
    bytes: int
    dropped: Dict[str, int]
    legacy_entries: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "entries": self.entries,
            "lines": self.lines,
            "bytes": self.bytes,
            "dropped": dict(self.dropped),
            "legacy_entries": self.legacy_entries,
        }


def cache_stats(cache_dir: Union[str, os.PathLike]) -> CacheStats:
    """Inventory a cache directory: a :func:`~repro.exec.journal.
    scan_journal` of its segment, plus the count of ignored legacy
    one-file entries."""
    from repro.exec.cache import SEGMENT_NAME
    from repro.exec.journal import scan_journal

    cache_dir = Path(cache_dir)
    segment = cache_dir / SEGMENT_NAME
    legacy = len(sorted(cache_dir.glob("*.pkl"))) \
        if cache_dir.is_dir() else 0
    if not segment.exists():
        return CacheStats(cache_dir, 0, 0, 0, {}, legacy)
    scan = scan_journal(segment)
    return CacheStats(cache_dir, scan.valid, scan.total,
                      segment.stat().st_size, scan.reasons(), legacy)


# -- the report -----------------------------------------------------


@dataclass
class GCReport:
    """What one GC pass removed (or would remove, under dry-run).

    ``dropped`` maps each compacted file to its per-reason counts:
    the loader's drop slugs plus ``duplicate`` for a valid line a
    later valid line of the same key supersedes.
    """

    dry_run: bool = False
    spool_results_removed: int = 0
    spool_results_bytes: int = 0
    spool_tmp_removed: int = 0
    journal_lines_dropped: int = 0
    journal_bytes_freed: int = 0
    dropped: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def merge(self, other: "GCReport") -> "GCReport":
        for name in ("spool_results_removed", "spool_results_bytes",
                     "spool_tmp_removed", "journal_lines_dropped",
                     "journal_bytes_freed"):
            setattr(self, name,
                    getattr(self, name) + getattr(other, name))
        self.dropped.update(other.dropped)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "dry_run": self.dry_run,
            "spool": {
                "results_removed": self.spool_results_removed,
                "results_bytes": self.spool_results_bytes,
                "tmp_removed": self.spool_tmp_removed,
            },
            "journal": {
                "lines_dropped": self.journal_lines_dropped,
                "bytes_freed": self.journal_bytes_freed,
                "dropped": {path: dict(reasons) for path, reasons
                            in sorted(self.dropped.items())},
            },
        }


# -- spool GC -------------------------------------------------------


def journal_keys(path: Union[str, os.PathLike], *,
                 version: Optional[str] = SIMULATOR_VERSION) -> Set[str]:
    """The keys a journal validly holds — the cells a resume (or
    ``repro verify``) could restore from it.  A line that fails
    validation names a key the journal cannot restore, so it does not
    count; a missing file holds none.  ``version`` is the simulator
    version lines must carry (``None``: any)."""
    from repro.exec.journal import _scan

    try:
        rows = _scan(path, version)[1]
    except OSError:
        return set()
    return {key for *_, (key, _stats) in rows}


def spool_inflight_keys(spool_root: Union[str, os.PathLike]) \
        -> Set[str]:
    """Keys a spool still has in flight (pending tickets + leases)."""
    root = Path(spool_root)
    keys: Set[str] = set()
    for sub, pattern in (("pending", "*.task"), ("leased", "*.task"),
                         ("leased", "*.lease")):
        directory = root / sub
        if directory.is_dir():
            keys.update(p.name.rsplit(".", 1)[0]
                        for p in sorted(directory.glob(pattern)))
    return keys


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # repro: noqa[REP204] -- signal 0 is a pure liveness probe; nothing is killed
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def gc_spool(spool_root: Union[str, os.PathLike], *,
             consumed: Iterable[str] = (),
             budget_results: Optional[int] = None,
             dry_run: bool = False) -> GCReport:
    """Remove consumed sealed results and dead temp files.

    ``consumed`` names keys whose results are safe to drop — they
    have been harvested *and* recorded in a journal, so the journal
    (not the spool) is now their ground truth.  In-flight keys
    (pending or leased) are never touched even if listed.
    ``budget_results`` additionally caps the results directory: when
    over, the oldest consumed results go first; unharvested results
    are never removed for budget reasons.

    Orphaned ``*.tmp-<pid>`` files whose writing process is gone are
    deleted — they are publishes that never happened.
    """
    root = Path(spool_root)
    report = GCReport(dry_run=dry_run)
    results_dir = root / "results"
    if not results_dir.is_dir():
        return report
    inflight = spool_inflight_keys(root)
    consumed = {key for key in consumed if key not in inflight}
    entries = _dir_entries(results_dir, "*.result")
    removable = [(p, size, m) for p, size, m in entries
                 if p.name.rsplit(".", 1)[0] in consumed]
    total = len(entries)
    # With no budget every consumed result goes (explicit GC mode);
    # under a budget the oldest consumed results go until it fits.
    for path, size, _mtime in removable:
        if budget_results is not None and total <= budget_results:
            break
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.spool_results_removed += 1
        report.spool_results_bytes += size
        total -= 1
    for sub in ("pending", "leased", "results", "hb", ""):
        directory = root / sub if sub else root
        if not directory.is_dir():
            continue
        candidates = set(directory.glob("*.tmp-*"))
        candidates.update(directory.glob(".*.tmp-*"))
        for path in sorted(candidates):
            pid = path.name.split(".tmp-", 1)[-1].split("-", 1)[0]
            if pid.isdigit() and _pid_alive(int(pid)):
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            report.spool_tmp_removed += 1
    return report


# -- compaction -----------------------------------------------------


def compact_journal(path: Union[str, os.PathLike], *,
                    version: Optional[str] = SIMULATOR_VERSION,
                    dry_run: bool = False) -> GCReport:
    """Rewrite a journal-format file keeping the last valid line per
    key.

    Every line is judged by the journal's loader against the
    simulator ``version`` its reader requires (``None``: any version
    is valid); an invalid one (torn, malformed, checksum, version
    drift, ...) is dropped and counted under the loader's reason, and
    a valid line a later valid line of the same key supersedes is
    dropped as ``duplicate``.  Since the loader also lets the last
    valid line win, compaction preserves exactly what a load at
    ``version`` would see.  Kept lines are copied **byte-for-byte**
    (never re-encoded), in the order their keys first appear.  The
    rewrite publishes atomically: a crash leaves the original file in
    place.
    """
    from repro.exec.journal import _scan

    path = Path(path)
    report = GCReport(dry_run=dry_run)
    try:
        data = path.read_bytes()
    except OSError:
        return report
    scan, rows = _scan(path, version, data=data)
    reasons = scan.reasons()
    kept: Dict[str, bytes] = {}
    for *_, raw, (key, _stats) in rows:
        if key in kept:     # the earlier line, superseded
            reasons["duplicate"] = reasons.get("duplicate", 0) + 1
        kept[key] = raw + b"\n"
    compacted = b"".join(kept.values())
    report.journal_lines_dropped = sum(reasons.values())
    report.journal_bytes_freed = len(data) - len(compacted)
    if reasons:
        report.dropped[str(path)] = reasons
        if not dry_run:
            faults.publish_bytes(path, compacted, retries=2)
    return report


# -- the run-dir orchestrator ---------------------------------------


def _recorded_version(manifest: Path) -> Optional[str]:
    """The simulator version a run dir's sealed manifest records, or
    ``None`` when there is no intact manifest to ask."""
    from repro.obs.manifest import load_manifest

    try:
        version = load_manifest(manifest).get("run", {}) \
            .get("simulator_version")
    except (OSError, SealError, AttributeError):
        return None
    return str(version) if version else None


def gc_run_dir(run_dir: Union[str, os.PathLike], *,
               spool_budget_results: Optional[int] = None,
               compact: bool = False,
               dry_run: bool = False) -> GCReport:
    """One GC pass over a run directory's stores (``repro gc``).

    The journal is judged at the simulator version the run's manifest
    records — the version ``repro verify`` loads it at — or at any
    version when there is no intact manifest, so a run recorded under
    an earlier simulator keeps its cells.  Spool results are consumed
    only for keys the journal validly holds: a damaged line cannot
    restore its cell, so the spool keeps that result.  ``compact``
    rewrites ``journal.jsonl`` with :func:`compact_journal`, and the
    cache segment — ``cache/segment.jsonl``, or ``segment.jsonl``
    when ``run_dir`` is itself a ``--cache-dir`` — at the current
    simulator version, since a cache only serves the current one.
    """
    from repro.exec.cache import SEGMENT_NAME

    run_dir = Path(run_dir)
    journal = run_dir / "journal.jsonl"
    spool = run_dir / "spool"
    version = _recorded_version(run_dir / "manifest.json")
    report = GCReport(dry_run=dry_run)
    if spool.is_dir():
        report.merge(gc_spool(
            spool, consumed=journal_keys(journal, version=version),
            budget_results=spool_budget_results, dry_run=dry_run,
        ))
    if compact:
        stores = ((journal, version),
                  (run_dir / "cache" / SEGMENT_NAME, SIMULATOR_VERSION),
                  (run_dir / SEGMENT_NAME, SIMULATOR_VERSION))
        for store, store_version in stores:
            if store.exists():
                report.merge(compact_journal(
                    store, version=store_version, dry_run=dry_run))
    return report
