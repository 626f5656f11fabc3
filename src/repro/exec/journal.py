"""Append-only checkpoint journal for interrupted simulation grids.

The journal records every completed cell of one screen as it
finishes, so a run killed at cell 79 of 88 — Ctrl-C, OOM, power
loss — resumes from cell 80 instead of cell 1.  A run directory's
``journal.jsonl`` is its only result store; a shared
:class:`~repro.exec.cache.ResultCache` directory holds one more file
in the same format (its segment), written and read by this module.

Format: one JSON line per completed cell::

    {"v": 2, "key": "<task_key sha-256>", "sha": "<sha-256 of blob>",
     "sim": "<SIMULATOR_VERSION>", "stats": "<base64 pickle>"}

The file is a sealed-line file (:mod:`repro.guard.lines`); this
module is its codec, and its failure policy: a record gets three
attempts, then the error propagates.  Design points of the codec:

* **Content-keyed** — entries are stored under the same
  :func:`~repro.exec.cache.task_key` hash the cache uses, so a resume
  is correct even if the caller reorders the grid, and a journal
  written for one screen is simply inert (never wrong) for another.
* **Self-checking** — the pickle blob's own sha-256 travels with it,
  and each line names the ``SIMULATOR_VERSION`` it was measured
  under; a flipped bit or a hand-migrated line from another simulator
  becomes an invalid line with a named reason rather than subtly
  wrong statistics.
* **Loud drops** — loading drops every invalid line, counted per
  reason (:attr:`Journal.dropped`), totalled in
  :attr:`Journal.corrupt` and surfaced as a :class:`RuntimeWarning`
  naming the file and the repair command.

Drop reasons (stable slugs, shared with :mod:`repro.guard.errors`):
``torn`` (unterminated final line — the crash signature), ``malformed``
(unparseable mid-file line), ``format-drift`` (journal format version
changed), ``version-drift`` (simulator version changed), ``checksum``
(payload hash mismatch), ``unpicklable`` (valid envelope, broken
payload).  :func:`scan_journal` reports them per line without loading;
:func:`repair_journal` (``repro journal repair``) applies the tail
rule and reports every dropped line explicitly.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.cpu import SIMULATOR_VERSION
from repro.guard import lines
from repro.guard.lines import LineScan

__all__ = [
    "Journal",
    "JournalRepair",
    "repair_journal",
    "scan_journal",
]

#: Journal line format version.  v1 lines (no ``sim`` field) predate
#: sealed artifacts and are dropped as ``format-drift``.
_FORMAT_VERSION = 2


def _check_line(raw: bytes, version: Optional[str]):
    """Validate one journal line's envelope and payload checksum.

    Returns ``((key, blob), None)`` with the pickled payload on
    success or ``(None, reason)`` with a stable reason slug on
    failure; ``version=None`` accepts any simulator version.
    """
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, "malformed"
    if not isinstance(entry, dict):
        return None, "malformed"
    if entry.get("v") != _FORMAT_VERSION:
        return None, "format-drift"
    if version is not None and entry.get("sim") != str(version):
        return None, "version-drift"
    try:
        key = entry["key"]
        blob = base64.b64decode(entry["stats"], validate=True)
    except (KeyError, TypeError, ValueError, binascii.Error):
        return None, "malformed"
    if not isinstance(key, str) \
            or hashlib.sha256(blob).hexdigest() != entry.get("sha"):
        return None, "checksum"
    return (key, blob), None


def _parse_line(raw: bytes, version: Optional[str]):
    """Validate one journal line and unpickle its payload: returns
    ``((key, stats), None)`` or ``(None, reason)``."""
    entry, reason = _check_line(raw, version)
    if reason is not None:
        return None, reason
    key, blob = entry
    try:
        stats = pickle.loads(blob)
    except Exception:
        return None, "unpicklable"
    return (key, stats), None


def _scan(path: Union[str, os.PathLike], version: Optional[str], *,
          data: Optional[bytes] = None):
    """:func:`repro.guard.lines.scan` of a journal-format file whose
    lines must carry simulator ``version`` (``None``: any)."""
    return lines.scan(path, partial(_parse_line, version=version),
                      data=data)


class Journal:
    """Append-only record of completed (task-key, stats) cells.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) on first write; an
        existing file is loaded so previously completed cells are
        immediately visible via :meth:`get` — this is what makes
        ``--resume`` work.
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
    """

    #: Write attempts per record: the first try plus retries after a
    #: rollback.  A transient fault window (injected or a disk that
    #: frees up) clears within the budget; a persistent one raises.
    _WRITE_ATTEMPTS = 3

    def __init__(self, path: Union[str, os.PathLike], *,
                 version: str = SIMULATOR_VERSION):
        self.path = Path(path)
        self.version = str(version)
        self.corrupt = 0
        self.dropped: Dict[str, int] = {}
        self._entries: Dict[str, object] = {}
        self._appender = lines.Appender(
            self.path, partial(_parse_line, version=self.version),
            attempts=self._WRITE_ATTEMPTS)
        if self.path.exists():
            self._load()

    @property
    def write_failures(self) -> int:
        """Failed (and rolled-back) record attempts — each one is an
        I/O fault the journal survived atomically."""
        return self._appender.failures

    # -- reading ----------------------------------------------------

    def _load(self) -> None:
        scan, rows = _scan(self.path, self.version)
        for *_, (key, stats) in rows:
            self._entries[key] = stats
        for _lineno, reason in scan.invalid:
            self._drop(reason)
        self._warn_dropped()

    def _drop(self, reason: str) -> None:
        self.corrupt += 1
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def _warn_dropped(self) -> None:
        if self.corrupt:
            warnings.warn(
                f"journal {self.path}: dropped {self.corrupt} invalid "
                f"line(s) ({lines.breakdown(self.dropped)}); "
                f"{self._repair_hint()}",
                RuntimeWarning,
                stacklevel=4,
            )

    def _repair_hint(self) -> str:
        return (f"run 'repro journal repair {self.path}' to inspect "
                "and truncate a torn tail")

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

        One flushed line through :meth:`repro.guard.lines.Appender.
        append`: safe under interleaved writers (a broker and a
        straggling worker, two resumed runs racing on one run dir —
        lines are content-keyed, so concurrent appends of one cell are
        merely redundant), applying the tail rule first, so a crash
        residue never swallows this record, and failing **atomically**:
        each failed attempt is rolled back under the lock, and after
        the third the error propagates with the journal as the tail
        rule left it.
        """
        if key in self._entries:
            return
        blob = pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)
        self._appender.append((json.dumps({
            "v": _FORMAT_VERSION,
            "key": key,
            "sha": hashlib.sha256(blob).hexdigest(),
            "sim": self.version,
            "stats": base64.b64encode(blob).decode("ascii"),
        }) + "\n").encode("utf-8"))
        self._entries[key] = stats

    def close(self) -> None:
        self._appender.close()

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
class JournalRepair:
    """Outcome of :func:`repair_journal`: the pre-repair
    :class:`~repro.guard.lines.LineScan`, whose ``damage`` a load
    still drops after the repair (mid-file damage a tail truncation
    cannot, and must not, touch), and the bytes removed from the end
    of the file (0 when there was no torn tail)."""

    scan: LineScan
    truncated_bytes: int


def scan_journal(path: Union[str, os.PathLike], *,
                 version: Optional[str] = SIMULATOR_VERSION) -> LineScan:
    """Classify every line of a journal without building its entries.

    ``version=None`` skips the simulator-version check (useful when
    inspecting a journal from another simulator build).
    """
    return _scan(path, version)[0]


def repair_journal(path: Union[str, os.PathLike], *,
                   version: Optional[str] = SIMULATOR_VERSION) \
        -> JournalRepair:
    """Apply the tail rule to a journal; report every dropped line.

    Only the end of the file changes: a torn final line — the residue
    of an interrupted write, which can never parse — is removed, and
    an unterminated line that parses gets its newline.  Mid-file
    invalid lines are *reported* (so the drops a resume performs are
    explicit) but left in place: destroying evidence of damage is not
    repair.
    """
    scan = scan_journal(path, version=version)
    appender = lines.Appender(path, partial(_parse_line, version=version),
                              attempts=1)
    try:
        truncated = appender.append()
    finally:
        appender.close()
    return JournalRepair(scan, truncated)
