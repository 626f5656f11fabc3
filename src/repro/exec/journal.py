"""Append-only checkpoint journal for interrupted simulation grids.

A :class:`~repro.exec.cache.ResultCache` already makes reruns cheap,
but it is an *optional* performance feature keyed for global reuse.
The journal is the *durability* feature: one file per screen that
records every completed cell as it finishes, so a run killed at cell
79 of 88 — Ctrl-C, OOM, power loss — resumes from cell 80 instead of
cell 1, even when no cache directory was configured.

Format: one JSON line per completed cell::

    {"v": 2, "key": "<task_key sha-256>", "sha": "<sha-256 of blob>",
     "sim": "<SIMULATOR_VERSION>", "stats": "<base64 pickle>"}

Design points:

* **Append-only** — a crash can only ever damage the final line.
  Loading validates every line and drops invalid ones *loudly*: each
  drop is counted per reason (:attr:`Journal.dropped`), totalled in
  :attr:`Journal.corrupt`, and surfaced as a :class:`RuntimeWarning`
  naming the file and the repair command — never silently discarded.
* **Content-keyed** — entries are stored under the same
  :func:`~repro.exec.cache.task_key` hash the cache uses, so a resume
  is correct even if the caller reorders the grid, and a journal
  written for one screen is simply inert (never wrong) for another.
* **Self-checking** — the pickle blob's own sha-256 travels with it,
  and each line names the ``SIMULATOR_VERSION`` it was measured
  under; a flipped bit or a hand-migrated line from another simulator
  becomes an invalid line with a named reason rather than subtly
  wrong statistics.

Drop reasons (stable slugs, shared with :mod:`repro.guard.errors`):
``torn`` (unterminated final line — the crash signature), ``malformed``
(unparseable mid-file line), ``format-drift`` (journal format version
changed), ``version-drift`` (simulator version changed), ``checksum``
(payload hash mismatch), ``unpicklable`` (valid envelope, broken
payload).  :func:`scan_journal` reports them per line without loading;
:func:`repair_journal` (``repro journal repair``) truncates the torn
tail and reports every dropped line explicitly.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
import warnings

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.cpu import SIMULATOR_VERSION
from repro.guard import faults

__all__ = [
    "Journal",
    "JournalRepair",
    "JournalScan",
    "repair_journal",
    "scan_journal",
]

#: Journal line format version.  v1 lines (no ``sim`` field) predate
#: sealed artifacts and are dropped as ``format-drift``.
_FORMAT_VERSION = 2


def _parse_line(raw: bytes, version: Optional[str]):
    """Validate one journal line.

    Returns ``(key, stats, None)`` on success or
    ``(None, None, reason)`` with a stable reason slug on failure.
    """
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, None, "malformed"
    if not isinstance(entry, dict):
        return None, None, "malformed"
    if entry.get("v") != _FORMAT_VERSION:
        return None, None, "format-drift"
    if version is not None and entry.get("sim") != str(version):
        return None, None, "version-drift"
    try:
        key = entry["key"]
        blob = base64.b64decode(entry["stats"], validate=True)
    except (KeyError, TypeError, ValueError, binascii.Error):
        return None, None, "malformed"
    if not isinstance(key, str) \
            or hashlib.sha256(blob).hexdigest() != entry.get("sha"):
        return None, None, "checksum"
    try:
        stats = pickle.loads(blob)
    except Exception:
        return None, None, "unpicklable"
    return key, stats, None


def _iter_lines(data: bytes):
    """Yield ``(lineno, raw, terminated, start_offset)`` per physical
    line (1-based line numbers, blank lines skipped)."""
    pos, lineno = 0, 0
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        if newline < 0:
            raw, next_pos, terminated = data[pos:], size, False
        else:
            raw, next_pos, terminated = data[pos:newline], newline + 1, True
        lineno += 1
        stripped = raw.strip()
        if stripped:
            yield lineno, stripped, terminated, pos
        pos = next_pos


class Journal:
    """Append-only record of completed (task-key, stats) cells.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) on first write; an
        existing file is loaded so previously completed cells are
        immediately visible via :meth:`get` — this is what makes
        ``--resume`` work.
    sync:
        Fsync after every record.  Off by default: the flush-per-line
        discipline already survives process death (Ctrl-C, SIGKILL),
        and fsync only adds protection against whole-machine crashes
        at a large per-cell cost.
    version:
        The simulator version recorded on (and required of) every
        line; defaults to :data:`~repro.cpu.SIMULATOR_VERSION`.

    Attributes
    ----------
    corrupt:
        Invalid lines dropped while loading (total across reasons).
    dropped:
        Per-reason breakdown of :attr:`corrupt` (``torn``,
        ``checksum``, ``version-drift``, ...).
    write_failures:
        Failed (and rolled-back) record attempts — each one is an
        I/O fault the journal survived atomically.
    """

    #: Write attempts per record: the first try plus retries after a
    #: rollback.  A transient fault window (injected or a disk that
    #: frees up) clears within the budget; a persistent one raises.
    _WRITE_ATTEMPTS = 3

    def __init__(self, path: Union[str, os.PathLike], *,
                 sync: bool = False, version: str = SIMULATOR_VERSION):
        self.path = Path(path)
        self.sync = sync
        self.version = str(version)
        self.corrupt = 0
        self.dropped: Dict[str, int] = {}
        self.write_failures = 0
        self._entries: Dict[str, object] = {}
        self._handle = None
        if self.path.exists():
            self._load()

    # -- reading ----------------------------------------------------

    def _load(self) -> None:
        data = self.path.read_bytes()
        for _lineno, raw, terminated, _start in _iter_lines(data):
            key, stats, reason = _parse_line(raw, self.version)
            if reason is None:
                self._entries[key] = stats
                continue
            if not terminated:
                # An unterminated final line is the signature of a
                # write interrupted mid-record, not of damage.
                reason = "torn"
            self.corrupt += 1
            self.dropped[reason] = self.dropped.get(reason, 0) + 1
        if self.corrupt:
            breakdown = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(self.dropped.items())
            )
            warnings.warn(
                f"journal {self.path}: dropped {self.corrupt} invalid "
                f"line(s) ({breakdown}); run "
                f"'repro journal repair {self.path}' to inspect and "
                "truncate a torn tail",
                RuntimeWarning,
                stacklevel=3,
            )

    def get(self, key: str):
        """The recorded stats for ``key``, or ``None``."""
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    # -- writing ----------------------------------------------------

    def record(self, key: str, stats) -> None:
        """Append one completed cell (idempotent per key).

        The line is flushed immediately so the entry survives the
        process dying right after the call.

        Safe under *interleaved writers*: the file is opened in append
        mode (every write lands at the current end of file) and the
        write+fault-handling is wrapped in an exclusive ``flock``, so
        two processes — a broker and a straggling worker, two resumed
        runs racing on one run-dir — can append to the same journal
        without ever tearing each other's lines.  Lines are
        content-keyed and self-checking, so concurrent appends of the
        same cell are merely redundant, never conflicting.

        Fails **atomically** under I/O faults: the write goes through
        the sanctioned seam (:func:`repro.guard.faults.vfs_write`),
        and on any ``OSError`` — ENOSPC, EIO, a torn half-line — the
        file is truncated back to its pre-record length *while the
        lock is still held*, then the write is retried.  The journal
        therefore never shows a torn line, even transiently; a
        persistent fault propagates after the retry budget with the
        journal exactly as it was before the call.
        """
        if key in self._entries:
            return
        blob = pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)
        data = (json.dumps({
            "v": _FORMAT_VERSION,
            "key": key,
            "sha": hashlib.sha256(blob).hexdigest(),
            "sim": self.version,
            "stats": base64.b64encode(blob).decode("ascii"),
        }) + "\n").encode("utf-8")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Unbuffered binary append: no hidden buffer can hold a
            # partial line across a failed write, so rollback (an
            # ftruncate to the pre-record size) is exact.
            self._handle = open(self.path, "ab", buffering=0)
        fd = self._handle.fileno()
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            start = os.fstat(fd).st_size
            for attempt in range(self._WRITE_ATTEMPTS):
                try:
                    faults.vfs_write(self._handle, data)
                    if self.sync:
                        faults.vfs_fsync(fd)
                    break
                except OSError:
                    self.write_failures += 1
                    # Roll back to the pre-record length (still under
                    # the lock, so no interleaved line can be cut).
                    os.ftruncate(fd, start)
                    if attempt == self._WRITE_ATTEMPTS - 1:
                        raise
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        self._entries[key] = stats

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # repro: noqa[REP007] -- GC-time close must never raise; interpreter may be tearing down
            pass


# -- offline inspection & repair -----------------------------------


@dataclass(frozen=True)
class JournalScan:
    """What a walk over a journal file found, line by line.

    Attributes
    ----------
    path:
        The file scanned.
    total:
        Non-blank physical lines.
    valid:
        Lines that load cleanly.
    invalid:
        ``(lineno, reason)`` pairs for every line a load would drop,
        1-based, in file order.
    torn_tail:
        True when the file ends in an unterminated, unparseable line
        — the footprint of a crash mid-write.
    keep_bytes:
        File size after truncating the torn tail (the full size when
        :attr:`torn_tail` is false).
    """

    path: Path
    total: int
    valid: int
    invalid: Tuple[Tuple[int, str], ...]
    torn_tail: bool
    keep_bytes: int

    def reasons(self) -> Dict[str, int]:
        """Per-reason counts of :attr:`invalid` lines."""
        out: Dict[str, int] = {}
        for _lineno, reason in self.invalid:
            out[reason] = out.get(reason, 0) + 1
        return out


@dataclass(frozen=True)
class JournalRepair:
    """Outcome of :func:`repair_journal`.

    Attributes
    ----------
    scan:
        The pre-repair :class:`JournalScan`.
    truncated_bytes:
        Bytes removed from the end of the file (0 when no torn tail).
    dropped:
        ``(lineno, reason)`` for every line a load will still drop
        *after* the repair — mid-file damage a tail truncation cannot
        (and must not) touch.
    """

    scan: JournalScan
    truncated_bytes: int
    dropped: Tuple[Tuple[int, str], ...]


def scan_journal(path: Union[str, os.PathLike], *,
                 version: Optional[str] = SIMULATOR_VERSION) \
        -> JournalScan:
    """Classify every line of a journal without building its entries.

    ``version=None`` skips the simulator-version check (useful when
    inspecting a journal from another simulator build).
    """
    path = Path(path)
    data = path.read_bytes()
    total = valid = 0
    invalid = []
    torn_tail = False
    keep_bytes = len(data)
    for lineno, raw, terminated, start in _iter_lines(data):
        total += 1
        _key, _stats, reason = _parse_line(raw, version)
        if reason is None:
            valid += 1
            continue
        if not terminated:
            reason = "torn"
            torn_tail = True
            keep_bytes = start
        invalid.append((lineno, reason))
    return JournalScan(path, total, valid, tuple(invalid),
                       torn_tail, keep_bytes)


def repair_journal(path: Union[str, os.PathLike], *,
                   version: Optional[str] = SIMULATOR_VERSION) \
        -> JournalRepair:
    """Truncate a journal's torn tail; report every dropped line.

    Only the unterminated final line is removed — it is the residue
    of an interrupted write and can never parse.  Mid-file invalid
    lines are *reported* (so the drops a resume performs are explicit)
    but left in place: destroying evidence of damage is not repair.
    """
    scan = scan_journal(path, version=version)
    truncated = 0
    if scan.torn_tail:
        size = scan.path.stat().st_size
        with open(scan.path, "r+b") as handle:
            handle.truncate(scan.keep_bytes)
        truncated = size - scan.keep_bytes
    remaining = tuple(
        (lineno, reason) for lineno, reason in scan.invalid
        if reason != "torn"
    )
    return JournalRepair(scan, truncated, remaining)
