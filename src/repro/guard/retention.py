"""Disk budgets and retention GC for the durable artifact stores.

The cache, journal, spool and quarantine directories are all
append-mostly: a long-lived experiment service (ROADMAP item 2) that
shares them across runs grows them without bound.  This module is the
reclamation layer — the *only* code in the tree allowed to delete a
valid artifact, and it does so under three strict rules:

* **Pinned keys are never evicted.**  A key referenced by an
  in-flight run (the engine pins every key it touches), by a journal
  (ground truth for resume and verification), or by a live spool
  ticket/lease is off-limits regardless of budget pressure.
* **Eviction is LRU, oldest first.**  Recency is the entry file's
  mtime; :class:`~repro.exec.cache.ResultCache` refreshes it on every
  hit, so "old" means "not used by any recent run", not "written
  long ago".
* **Everything is reported.**  :class:`GCReport` counts entries and
  bytes per target; ``repro gc --dry-run`` prints the same report
  without deleting anything.

Deletions route through plain ``unlink`` (removal needs no atomic
publish); the one rewrite — journal compaction — publishes the
compacted file through :func:`repro.guard.faults.publish_bytes`, so
a crash mid-compaction leaves the original journal untouched.

Surfaced as ``repro gc`` and ``repro cache stats``; the engine and
the distributed broker call :func:`gc_spool` /
``ResultCache`` budgets inline so long-lived stores stay bounded
without an operator cron job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from . import faults

__all__ = [
    "CacheStats",
    "GCReport",
    "cache_stats",
    "compact_journal",
    "gc_cache",
    "gc_quarantine",
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
    """What one cache directory holds (``repro cache stats``)."""

    path: Path
    entries: int
    bytes: int
    quarantine_entries: int
    quarantine_bytes: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "entries": self.entries,
            "bytes": self.bytes,
            "quarantine_entries": self.quarantine_entries,
            "quarantine_bytes": self.quarantine_bytes,
        }


def cache_stats(cache_dir: Union[str, os.PathLike]) -> CacheStats:
    """Inventory a cache directory (entries, bytes, quarantine)."""
    cache_dir = Path(cache_dir)
    entries = _dir_entries(cache_dir, "*.pkl")
    quarantine = _dir_entries(cache_dir / "quarantine", "*") \
        if (cache_dir / "quarantine").is_dir() else []
    return CacheStats(
        path=cache_dir,
        entries=len(entries),
        bytes=sum(size for _p, size, _m in entries),
        quarantine_entries=len(quarantine),
        quarantine_bytes=sum(size for _p, size, _m in quarantine),
    )


# -- the report -----------------------------------------------------


@dataclass
class GCReport:
    """What one GC pass removed (or would remove, under dry-run)."""

    dry_run: bool = False
    cache_evicted: int = 0
    cache_evicted_bytes: int = 0
    cache_pinned_kept: int = 0
    quarantine_pruned: int = 0
    quarantine_pruned_bytes: int = 0
    spool_results_removed: int = 0
    spool_results_bytes: int = 0
    spool_tmp_removed: int = 0
    journal_lines_dropped: int = 0
    journal_bytes_freed: int = 0
    details: List[str] = field(default_factory=list)

    def merge(self, other: "GCReport") -> "GCReport":
        for name in ("cache_evicted", "cache_evicted_bytes",
                     "cache_pinned_kept", "quarantine_pruned",
                     "quarantine_pruned_bytes", "spool_results_removed",
                     "spool_results_bytes", "spool_tmp_removed",
                     "journal_lines_dropped", "journal_bytes_freed"):
            setattr(self, name,
                    getattr(self, name) + getattr(other, name))
        self.details.extend(other.details)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "dry_run": self.dry_run,
            "cache": {
                "evicted": self.cache_evicted,
                "evicted_bytes": self.cache_evicted_bytes,
                "pinned_kept": self.cache_pinned_kept,
            },
            "quarantine": {
                "pruned": self.quarantine_pruned,
                "pruned_bytes": self.quarantine_pruned_bytes,
            },
            "spool": {
                "results_removed": self.spool_results_removed,
                "results_bytes": self.spool_results_bytes,
                "tmp_removed": self.spool_tmp_removed,
            },
            "journal": {
                "lines_dropped": self.journal_lines_dropped,
                "bytes_freed": self.journal_bytes_freed,
            },
        }


# -- pinning sources ------------------------------------------------


def journal_keys(path: Union[str, os.PathLike]) -> Set[str]:
    """Every task key a journal file references.

    Pins liberally: any line that *names* a key counts, even when the
    line would fail a full checksum validation — a damaged line is
    still evidence that the key matters to someone.
    """
    keys: Set[str] = set()
    try:
        data = Path(path).read_bytes()
    except OSError:
        return keys
    for raw in data.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(entry, dict) and isinstance(entry.get("key"), str):
            keys.add(entry["key"])
    return keys


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


# -- cache eviction -------------------------------------------------


def gc_cache(cache_dir: Union[str, os.PathLike], *,
             budget_bytes: Optional[int] = None,
             budget_entries: Optional[int] = None,
             pinned: Iterable[str] = (),
             dry_run: bool = False) -> GCReport:
    """Evict LRU cache entries until the directory fits its budget.

    Pinned keys are never evicted, even when that leaves the
    directory over budget — correctness of in-flight runs outranks
    the budget (the property the test suite proves).  Entries are
    visited oldest-first by mtime (hits refresh it, so this is LRU).
    """
    cache_dir = Path(cache_dir)
    report = GCReport(dry_run=dry_run)
    if budget_bytes is None and budget_entries is None:
        return report
    pinned = set(pinned)
    entries = _dir_entries(cache_dir, "*.pkl")
    total_bytes = sum(size for _p, size, _m in entries)
    total_entries = len(entries)
    for path, size, _mtime in entries:
        over_bytes = (budget_bytes is not None
                      and total_bytes > budget_bytes)
        over_entries = (budget_entries is not None
                        and total_entries > budget_entries)
        if not over_bytes and not over_entries:
            break
        if path.stem in pinned:
            report.cache_pinned_kept += 1
            continue
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.cache_evicted += 1
        report.cache_evicted_bytes += size
        total_bytes -= size
        total_entries -= 1
    return report


def gc_quarantine(directory: Union[str, os.PathLike], *,
                  budget_bytes: Optional[int] = None,
                  budget_entries: Optional[int] = None,
                  dry_run: bool = False) -> GCReport:
    """Prune a quarantine directory to its budget, oldest first.

    Quarantined files are evidence, not data — nothing pins them, but
    pruning only happens under an explicit budget, and the newest
    files (the most recent damage, the most likely to be under
    investigation) are kept.
    """
    directory = Path(directory)
    report = GCReport(dry_run=dry_run)
    if budget_bytes is None and budget_entries is None:
        return report
    if not directory.is_dir():
        return report
    entries = _dir_entries(directory, "*")
    total_bytes = sum(size for _p, size, _m in entries)
    total_entries = len(entries)
    for path, size, _mtime in entries:
        over_bytes = (budget_bytes is not None
                      and total_bytes > budget_bytes)
        over_entries = (budget_entries is not None
                        and total_entries > budget_entries)
        if not over_bytes and not over_entries:
            break
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.quarantine_pruned += 1
        report.quarantine_pruned_bytes += size
        total_bytes -= size
        total_entries -= 1
    return report


# -- spool GC -------------------------------------------------------


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


# -- journal compaction ---------------------------------------------


def compact_journal(path: Union[str, os.PathLike], *,
                    dry_run: bool = False) -> GCReport:
    """Rewrite a journal keeping one line per key (the last).

    Duplicate keys arise from interleaved writers and re-harvested
    cells; the loader's dict semantics already mean "last wins", so
    compaction preserves exactly what a resume would see.  Kept lines
    are copied **byte-for-byte** (never re-encoded) so checksums and
    bit-exact journal/cache agreement survive.  Damaged lines are
    dropped and counted — compaction is an explicit, reported
    destruction of residue, unlike ``repair`` which only truncates a
    torn tail.  The rewrite publishes atomically: a crash leaves the
    original journal in place.
    """
    path = Path(path)
    report = GCReport(dry_run=dry_run)
    try:
        data = path.read_bytes()
    except OSError:
        return report
    kept: Dict[str, bytes] = {}
    order: List[str] = []
    dropped = 0
    for raw in data.splitlines(keepends=True):
        stripped = raw.strip()
        if not stripped:
            continue
        if not raw.endswith(b"\n"):
            dropped += 1        # torn tail: residue, not a record
            continue
        try:
            entry = json.loads(stripped.decode("utf-8"))
            key = entry["key"]
        except (ValueError, UnicodeDecodeError, KeyError, TypeError):
            dropped += 1
            continue
        if not isinstance(key, str):
            dropped += 1
            continue
        if key in kept:
            dropped += 1        # superseded duplicate
        else:
            order.append(key)
        kept[key] = raw
    compacted = b"".join(kept[key] for key in order)
    report.journal_lines_dropped = dropped
    report.journal_bytes_freed = len(data) - len(compacted)
    if dropped and not dry_run:
        faults.publish_bytes(path, compacted, retries=2)
    return report


# -- the run-dir orchestrator ---------------------------------------


def gc_run_dir(run_dir: Union[str, os.PathLike], *,
               cache_budget_bytes: Optional[int] = None,
               cache_budget_entries: Optional[int] = None,
               quarantine_budget_bytes: Optional[int] = None,
               quarantine_budget_entries: Optional[int] = None,
               spool_budget_results: Optional[int] = None,
               compact: bool = False,
               dry_run: bool = False) -> GCReport:
    """One GC pass over a run directory's stores (``repro gc``).

    Pins every key the run's journal references and every key its
    spool has in flight before touching the cache; spool results are
    only consumed once the journal covers them.
    """
    run_dir = Path(run_dir)
    journal = run_dir / "journal.jsonl"
    cache_dir = run_dir / "cache"
    spool = run_dir / "spool"
    pinned = journal_keys(journal)
    if spool.is_dir():
        pinned |= spool_inflight_keys(spool)
    report = GCReport(dry_run=dry_run)
    if cache_dir.is_dir():
        report.merge(gc_cache(
            cache_dir, budget_bytes=cache_budget_bytes,
            budget_entries=cache_budget_entries, pinned=pinned,
            dry_run=dry_run,
        ))
        report.merge(gc_quarantine(
            cache_dir / "quarantine",
            budget_bytes=quarantine_budget_bytes,
            budget_entries=quarantine_budget_entries,
            dry_run=dry_run,
        ))
    if spool.is_dir():
        report.merge(gc_spool(
            spool, consumed=journal_keys(journal),
            budget_results=spool_budget_results, dry_run=dry_run,
        ))
    if compact and journal.exists():
        report.merge(compact_journal(journal, dry_run=dry_run))
    return report
