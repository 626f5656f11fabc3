"""Sealed-line files: the framing every durable append shares.

A run directory appends to three kinds of file — the checkpoint
journal (:mod:`repro.exec.journal`), a result cache's segment (the
journal's format) and the event-log lanes (:mod:`repro.obs.stream`).
Each holds one self-checking line per record, and all of them keep
one discipline, implemented here once:

* **Walking** — :func:`walk` splits a file into physical lines and
  judges each non-blank one with the file's codec; an invalid line
  with no terminating newline is ``torn``, the signature of a write
  interrupted mid-record rather than damage.  :func:`scan` tallies a
  walk into a :class:`LineScan`.
* **Appending** — :meth:`Appender.append` writes one line under an
  exclusive ``flock`` through :func:`repro.guard.faults.vfs_write` and
  rolls a failed write back (``ftruncate`` to the pre-append size,
  still under the lock), so no reader ever sees a partial line it
  wrote.  How many attempts a line gets is the file's failure policy.
* **The tail rule** — applied under that lock before every append,
  and on its own by ``repro journal repair``: an unterminated final
  line that is ``torn`` is truncated; one that parses gets its
  newline.  A record appended after a crash is therefore a line of
  its own, and the crash residue never becomes mid-file damage.

The codec stays with each file's module: what a line holds, its
checksum scheme, and its parse function, which takes the stripped
line bytes and returns ``(value, None)`` or ``(None, reason)`` with
a stable reason slug (:mod:`repro.guard.errors`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from . import faults

__all__ = ["Appender", "LineScan", "breakdown", "scan", "walk"]

#: A codec's parse function: stripped line bytes -> (value, reason).
Parse = Callable[[bytes], Tuple[object, Optional[str]]]

#: A valid line as :func:`scan` returns it: 1-based line number, byte
#: offset of the physical line, its stripped bytes, the parsed value.
Row = Tuple[int, int, bytes, object]


def walk(data: bytes, parse: Parse) \
        -> Iterator[Tuple[int, int, bytes, object, Optional[str]]]:
    """Judge every non-blank physical line of ``data``.

    Yields ``(lineno, start, raw, value, reason)``: the 1-based line
    number, the line's byte offset, its stripped bytes, then the
    verdict of ``parse`` — except that an invalid line with no
    terminating newline is ``torn``.
    """
    pos, lineno, size = 0, 0, len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        end = size if newline < 0 else newline
        lineno += 1
        raw = data[pos:end].strip()
        if raw:
            value, reason = parse(raw)
            if reason is not None and newline < 0:
                reason = "torn"
            yield lineno, pos, raw, value, reason
        pos = end + 1


@dataclass(frozen=True)
class LineScan:
    """What a walk over one sealed-line file found.

    Attributes
    ----------
    path:
        The file scanned.
    total:
        Non-blank physical lines.
    valid:
        Lines the codec parses.
    invalid:
        ``(lineno, reason)`` for every line a reader drops, 1-based,
        in file order.
    torn_tail:
        True when the file ends in a ``torn`` line — the footprint of
        a crash mid-write.
    keep_bytes:
        File size after the tail rule truncates the torn tail (the
        full size when :attr:`torn_tail` is false).
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

    @property
    def damage(self) -> Tuple[Tuple[int, str], ...]:
        """Mid-file damage only: every invalid line except the torn
        tail, which is a crash signature the tail rule removes."""
        return tuple((lineno, reason) for lineno, reason in self.invalid
                     if reason != "torn")


def scan(path: Union[str, os.PathLike], parse: Parse, *,
         data: Optional[bytes] = None) -> Tuple[LineScan, List[Row]]:
    """Walk one file (or ``data``, its bytes already read): its
    :class:`LineScan` and the valid lines as :data:`Row` tuples."""
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    rows: List[Row] = []
    invalid: List[Tuple[int, str]] = []
    keep = len(data)
    for lineno, start, raw, value, reason in walk(data, parse):
        if reason is None:
            rows.append((lineno, start, raw, value))
            continue
        invalid.append((lineno, reason))
        if reason == "torn":
            keep = start
    return LineScan(path, len(rows) + len(invalid), len(rows),
                    tuple(invalid), keep < len(data), keep), rows


def breakdown(reasons: Dict[str, int]) -> str:
    """``"checksum: 1, torn: 2"`` — per-reason counts, sorted, as
    every drop warning and verify finding words them."""
    return ", ".join(f"{reason}: {count}"
                     for reason, count in sorted(reasons.items()))


class Appender:
    """Appends lines to one sealed-line file.

    Parameters
    ----------
    path:
        The file; created (with parents) on first use.
    parse:
        The file's codec parse, which the tail rule judges the final
        line with.
    attempts:
        Write attempts per line, the file's failure policy: after the
        last rollback the error propagates.

    Attributes
    ----------
    failures:
        Failed (and rolled-back) write attempts.
    """

    def __init__(self, path: Union[str, os.PathLike], parse: Parse, *,
                 attempts: int):
        self.path = Path(path)
        self.parse = parse
        self.attempts = attempts
        self.failures = 0
        self._handle = None
        self._end = 0       # where this appender's last line ended

    def append(self, line: bytes = b"") -> int:
        """Apply the tail rule, then append ``line`` (bytes ending in
        a newline); with no line only the tail rule runs, as in
        ``repro journal repair``.  Returns the bytes the tail rule
        removed.

        Safe under interleaved writers: the file is opened in append
        mode and the tail rule, the write and any rollback happen
        under one exclusive ``flock``.  The file is unbuffered, so no
        hidden buffer can hold part of a line across a failed write
        and the rollback is exact.
        """
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a+b", buffering=0)
        fd = self._handle.fileno()
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            size = start = os.lseek(fd, 0, os.SEEK_END)
            # A file still ending where this appender's last line did
            # ends in its newline; anything else gets the tail rule,
            # judged by the walker itself.
            if size and size != self._end \
                    and os.pread(fd, 1, size - 1) != b"\n":
                data = os.pread(fd, size, 0)
                tail = data.rfind(b"\n") + 1
                if any(reason == "torn" for *_, reason
                       in walk(data[tail:], self.parse)):
                    os.ftruncate(fd, tail)
                    start = tail
                else:
                    line = b"\n" + line
            # (Nothing to write when only the tail rule runs.)
            for attempt in range(self.attempts if line else 0):
                try:
                    faults.vfs_write(self._handle, line)
                    self._end = start + len(line)
                    break
                except OSError:
                    self.failures += 1
                    os.ftruncate(fd, start)
                    if attempt == self.attempts - 1:
                        raise
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        return size - start

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
