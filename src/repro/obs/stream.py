"""Crash-durable structured event log: the live telemetry stream.

:mod:`repro.obs` (PR 4) collects spans and metrics in memory and
exports them at clean process exit — which means a three-hour
distributed screen is invisible while it runs and a crashed broker
leaves no telemetry at all.  This module is the incremental half: an
**append-only, sealed-line JSONL event log** written record by record
as the run executes, so the on-disk stream is always at most one torn
line behind reality.

Format: one JSON object per line::

    {"v": 2, "lane": "main", "seq": 3, "kind": "span-open",
     "name": "grid", "cat": "grid", "t": 12345.678901, "sid": 1,
     "attrs": {"tasks": 176}, "sha": "<sha-256 of the canonical
     record without this field>"}

A lane is a sealed-line file (:mod:`repro.guard.lines`): the shared
appender, walker and tail rule make a torn tail a crash signature,
reported apart from mid-file damage.  This module is the lane's codec
and its failure policy: one attempt per record.

* **One lane per writer** — the engine/broker process writes
  ``stream/main.events.jsonl`` under the run directory; every dist
  worker writes ``stream/<worker-id>.events.jsonl`` under the spool.
  A lane has exactly one living writer, and each writer *generation*
  (process) opens with a ``stream-open`` record carrying its epoch
  anchors, so a reader can tell a restart from a continuation.
* **Monotonic instants** — every record's ``t`` is
  :func:`repro.obs.clock.monotonic`, the same cross-process clock the
  spool's leases and heartbeats use, so the fleet aggregator can age
  a lease against a stream event directly.  Wall time appears exactly
  once per generation, as the ``stream-open`` anchor, read through
  the sanctioned :mod:`repro.obs.clock` site.

Event kinds (:data:`EVENT_KINDS`): ``stream-open`` / ``stream-close``
(writer lifecycle), ``span-open`` / ``span-close`` (paired by ``sid``
within a generation), ``instant``, ``counter`` (deltas), ``gauge``
(emitted on value change only), ``observe`` (histogram samples), and
``progress`` (tasks done/total — the ETA inputs).  A ``counter``
record carries either one ``name`` with ``attrs.delta`` or, since
schema 2, a ``deltas`` map of several counters moved together (the
engine's per-cell completion tally).  The schema is versioned
(:data:`EVENT_SCHEMA`); readers accept every version in
:data:`READ_SCHEMAS`, and a line under any other version is named
``schema-drift`` damage rather than misread.

The stream is **strictly observational**, like everything in this
package: the writer never raises into the run (a failing disk warns
once and disables the lane), record identity derives from run
content, and the 88-run screen is bit-identical with streaming armed
or bare.  :func:`trace_from_streams` reconstructs a Chrome/Perfetto
trace from the log alone — including for interrupted runs, where
dangling ``span-open`` records are closed at their lane's last
observed instant and marked ``interrupted``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.guard import lines
from repro.guard.lines import LineScan

from . import clock

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventRecord",
    "EventWriter",
    "READ_SCHEMAS",
    "StreamScan",
    "counter_deltas",
    "find_stream_lanes",
    "scan_stream",
    "trace_from_streams",
]

#: Event-record format version written by :class:`EventWriter`.  v2
#: added the folded ``counter`` record (a ``deltas`` map); a v1-only
#: reader names v2 lines ``schema-drift`` instead of dropping deltas.
EVENT_SCHEMA = 2

#: Every version this module reads; a line under any other version
#: is ``schema-drift`` damage, never silently reinterpreted.
READ_SCHEMAS = (1, 2)

#: Every record kind a stream may carry.
EVENT_KINDS = (
    "stream-open", "stream-close",
    "span-open", "span-close", "instant",
    "counter", "gauge", "observe", "progress",
)

#: Filename suffix of every event-log lane.
LANE_SUFFIX = ".events.jsonl"


#: The one canonical encoder: sorted keys, compact separators, and
#: ``str()`` for anything JSON cannot carry.  Built once — a fresh
#: ``json.dumps`` call constructs an encoder per record.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=str)


def _canonical(record: Dict[str, object]) -> bytes:
    return _ENCODER.encode(record).encode("utf-8")


def _line_sha(record: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical(record)).hexdigest()


def _number(value) -> str:
    """``value`` as the canonical encoder writes it; exact ints and
    finite floats are formatted directly (the encoder's own repr)."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return kind.__repr__(value)
    return _ENCODER.encode(value)


#: The closing member every record written by this version ends with.
_LINE_END = f',"v":{EVENT_SCHEMA}}}'


def _sealed_line(head: Dict[str, object], t, sid) -> str:
    """The sealed line of the record ``head`` plus ``t``, ``v`` and, if
    not ``None``, ``sid``.

    ``head`` holds the keys sorting before ``"sha"``; ``sid``, ``t``
    and ``v`` sort after it, so the canonical encoding of the whole
    record is ``head``'s encoding continued by those three, and the
    sealed line is the same text with ``"sha"`` spliced in at its
    sorted position — equal, byte for byte, to encoding the record a
    second time with its sha.
    """
    left = _ENCODER.encode(head)[:-1]
    right = f'"t":{_number(t)}{_LINE_END}'
    if sid is not None:
        right = f'"sid":{_number(sid)},{right}'
    sha = hashlib.sha256(
        f"{left},{right}".encode("utf-8")).hexdigest()
    return f'{left},"sha":"{sha}",{right}\n'


def counter_deltas(record: "EventRecord") -> Dict[str, int]:
    """``name -> delta`` carried by one ``counter`` record from
    :func:`scan_stream`, in either form.

    A per-name record (``name`` + ``attrs.delta``) and a folded one
    (``attrs.deltas``) read the same way, so readers need not know
    which form a writer used, and a lane mixing both rolls up to the
    same totals.
    """
    deltas = record.attrs.get("deltas")
    if deltas is not None:
        return dict(deltas)
    return {record.name: record.attrs["delta"]}


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class EventWriter:
    """One lane of the event log: append-only, flushed per record.

    Doubles as the *sink* the in-memory telemetry objects fan out to:
    a :class:`~repro.obs.span.Tracer` built with ``sink=writer``
    streams every span open/close and instant as it happens, and a
    :class:`~repro.obs.metrics.MetricsRegistry` with ``sink=writer``
    streams counter deltas, gauge changes and histogram observations
    — so the engine and broker stream with no engine changes at all.
    Dist workers hold no tracer and call :meth:`open_span` /
    :meth:`close_span` / :meth:`mark` directly.

    Emission is guarded end to end: any I/O or encoding failure warns
    once, disables the lane, and the run continues — recording is
    observational, never load-bearing.

    Parameters
    ----------
    path:
        The lane file (``*.events.jsonl``).  Created (with parents)
        on first emit; the tail rule mends a crashed generation's
        residue before this generation's ``stream-open`` is appended.
    lane:
        Lane name carried on every record (``"main"`` for the
        engine/broker process, the worker id for dist workers).
    version:
        Simulator version recorded in the ``stream-open`` anchor;
        defaults to :data:`~repro.cpu.SIMULATOR_VERSION`.
    """

    def __init__(self, path: Union[str, os.PathLike], *, lane: str,
                 version: Optional[str] = None):
        self.path = Path(path)
        self.lane = str(lane)
        self.version = version
        self._handle: Optional[lines.Appender] = None
        self._seq = 0
        self._next_sid = 0
        self._sids: Dict[int, int] = {}
        self._gauges: Dict[str, object] = {}
        self._disabled = False

    # -- plumbing ---------------------------------------------------

    def _disable(self, exc: BaseException) -> None:
        self._disabled = True
        warnings.warn(
            f"event stream {self.path} failed "
            f"({type(exc).__name__}: {exc}); disabling the lane — "
            "the run continues without live telemetry",
            RuntimeWarning, stacklevel=4,
        )

    def _open(self) -> None:
        self._handle = lines.Appender(self.path, _parse_line, attempts=1)
        if self.version is None:
            from repro.cpu import SIMULATOR_VERSION

            self.version = SIMULATOR_VERSION
        self.emit(
            "stream-open",
            schema=EVENT_SCHEMA, sim=str(self.version),
            pid=os.getpid(), wall=clock.wall_time(),
        )

    def emit(self, kind: str, name: str = "", category: str = "", /,
             sid: Optional[int] = None, **attrs) -> None:
        """Append one record (guarded; never raises into the run).

        ``kind``, ``name`` and ``category`` are positional-only, so an
        event may carry attributes of those names (a retry's ``kind``).
        """
        if self._disabled:
            return
        try:
            if self._handle is None:
                self._open()
                if self._disabled:      # the stream-open failed
                    return
            head = {"attrs": attrs, "kind": kind, "lane": self.lane,
                    "seq": self._seq}
            if name:
                head["name"] = name
            if category:
                head["cat"] = category
            line = _sealed_line(head, clock.monotonic(), sid)
            # An injected (or real) ENOSPC/EIO/torn write is rolled
            # back by the appender and lands in the except below:
            # degrade loudly, never abort the run.
            self._handle.append(line.encode("utf-8"))
            self._seq += 1
        except Exception as exc:  # observational sink: any failure disables the lane instead of aborting the run
            self._disable(exc)

    # -- direct span / instant emission (dist workers) --------------

    def open_span(self, name: str, category: str = "phase",
                  **attrs) -> int:
        """Emit a ``span-open``; returns the ``sid`` to close it with."""
        self._next_sid += 1
        sid = self._next_sid
        self.emit("span-open", name, category, sid=sid, **attrs)
        return sid

    def close_span(self, sid: int, **attrs) -> None:
        """Emit the matching ``span-close`` for an :meth:`open_span`."""
        self.emit("span-close", sid=sid, **attrs)

    def mark(self, name: str, category: str = "event", **attrs) -> None:
        """Emit one instant event."""
        self.emit("instant", name, category, **attrs)

    # -- the telemetry sink protocol --------------------------------

    def span_open(self, span) -> None:
        """Tracer sink: a span began."""
        self._next_sid += 1
        self._sids[id(span)] = self._next_sid
        self.emit("span-open", span.name, span.category,
                  sid=self._next_sid,
                  **dict(span.attributes,
                         **({"async": True} if span.asynchronous
                            else {})))

    def span_close(self, span) -> None:
        """Tracer sink: a span ended (attributes are final)."""
        sid = self._sids.pop(id(span), None)
        if sid is not None:
            self.emit("span-close", sid=sid, **span.attributes)

    def instant(self, span) -> None:
        """Tracer sink: an instant event was recorded."""
        self.emit("instant", span.name, span.category,
                  **span.attributes)

    def counter(self, name: str, amount: int) -> None:
        """Metrics sink: a counter moved by ``amount``."""
        self.emit("counter", name, delta=int(amount))

    def counters(self, deltas: Dict[str, int]) -> None:
        """Metrics sink: several counters moved together, as one
        folded ``counter`` record (read back by :func:`counter_deltas`)."""
        self.emit("counter", deltas={name: int(amount)
                                     for name, amount in deltas.items()})

    def gauge(self, name: str, value) -> None:
        """Metrics sink: a gauge was sampled (streamed on change only,
        so a broker polling an unchanged queue does not flood the
        lane)."""
        if self._gauges.get(name) == value:
            return
        self._gauges[name] = value
        self.emit("gauge", name, value=value)

    def observe(self, name: str, value) -> None:
        """Metrics sink: one histogram observation."""
        self.emit("observe", name, value=float(value))

    def progress(self, done: int, total: int) -> None:
        """Engine progress: cells resolved so far."""
        self.emit("progress", done=int(done), total=int(total))

    # -- lifecycle --------------------------------------------------

    def close(self, status: str = "closed") -> None:
        """Seal the generation with a ``stream-close`` record."""
        if self._handle is None:
            return
        self.emit("stream-close", status=str(status))
        try:
            self._handle.close()
        except OSError:
            pass
        self._handle = None
        self._disabled = True

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close("interrupted" if exc_info[0] is not None
                   else "closed")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventRecord:
    """One validated stream record."""

    lane: str
    seq: int
    kind: str
    t: float
    name: str = ""
    category: str = ""
    sid: Optional[int] = None
    attrs: Dict[str, object] = None
    lineno: int = 0


@dataclass(frozen=True)
class StreamScan(LineScan):
    """The :class:`~repro.guard.lines.LineScan` of one lane file
    (damage slugs: ``malformed``, ``checksum``, ``schema-drift``),
    plus the lane's name and its valid records."""

    lane: str
    records: Tuple[EventRecord, ...]

    def generations(self) -> List[Tuple[EventRecord, ...]]:
        """Records split into writer generations at each
        ``stream-open`` (a restarted broker appends a new one)."""
        out: List[List[EventRecord]] = []
        for record in self.records:
            if record.kind == "stream-open" or not out:
                out.append([])
            out[-1].append(record)
        return [tuple(gen) for gen in out]


def _parse_line(raw: bytes) -> Tuple[Optional[EventRecord], Optional[str]]:
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, "malformed"
    if not isinstance(entry, dict):
        return None, "malformed"
    if entry.get("v") not in READ_SCHEMAS:
        return None, "schema-drift"
    sha = entry.pop("sha", None)
    if sha != _line_sha(entry):
        return None, "checksum"
    try:
        record = EventRecord(
            lane=str(entry["lane"]), seq=int(entry["seq"]),
            kind=str(entry["kind"]), t=float(entry["t"]),
            name=str(entry.get("name", "")),
            category=str(entry.get("cat", "")),
            sid=entry.get("sid"),
            attrs=dict(entry.get("attrs") or {}),
        )
    except (KeyError, TypeError, ValueError):
        return None, "malformed"
    if record.kind not in EVENT_KINDS:
        return None, "malformed"
    if record.kind == "counter" and not _valid_counter(record):
        return None, "malformed"
    return record, None


def _valid_counter(record: EventRecord) -> bool:
    """A ``counter`` record is one named integer ``delta`` or an
    unnamed ``deltas`` map of name -> integer."""
    deltas = record.attrs.get("deltas")
    if deltas is None:
        return bool(record.name) \
            and isinstance(record.attrs.get("delta"), int)
    return (not record.name and isinstance(deltas, dict)
            and all(isinstance(value, int)
                    for value in deltas.values()))


def scan_stream(path: Union[str, os.PathLike]) -> StreamScan:
    """Classify every line of one lane file with the shared walker:
    a torn tail is skipped (reported as ``torn``), and any other
    invalid line is named with its reason, never silently dropped."""
    framing, rows = lines.scan(path, _parse_line)
    records = tuple(replace(record, lineno=lineno)
                    for lineno, _start, _raw, record in rows)
    name = framing.path.name
    lane = records[0].lane if records else name[:-len(LANE_SUFFIX)] \
        if name.endswith(LANE_SUFFIX) else framing.path.stem
    return StreamScan(**vars(framing), lane=lane, records=records)


def find_stream_lanes(root: Union[str, os.PathLike]) -> List[Path]:
    """Every lane file reachable from ``root``, sorted by path.

    Accepts a run directory (``stream/`` plus ``spool/stream/``), a
    spool directory (``stream/``), or a bare stream directory — the
    layouts ``repro top`` and ``repro obs export`` are pointed at.
    """
    root = Path(root)
    lanes: List[Path] = []
    for directory in (root, root / "stream", root / "spool" / "stream"):
        if directory.is_dir():
            lanes.extend(sorted(directory.glob(f"*{LANE_SUFFIX}")))
    seen = set()
    unique = []
    for path in lanes:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


# ---------------------------------------------------------------------------
# Trace reconstruction
# ---------------------------------------------------------------------------

#: Synthetic process id for reconstructed trace events.
_PID = 1


def _microseconds(seconds: float) -> int:
    return int(round(seconds * 1e6))


def trace_from_streams(scans: Sequence[StreamScan]) -> Dict[str, object]:
    """A Chrome trace-event document rebuilt from the event log alone.

    This is what makes interrupted runs finally produce usable
    traces: span pairing happens per lane and per generation, and a
    ``span-open`` whose close never made it to disk (a killed worker,
    a crashed broker) is closed at its lane's last observed instant
    with ``interrupted: true`` — accounted for, and honest about it.
    Gauges become Perfetto counter tracks (``ph: "C"``); instants
    become ``"i"`` marks.
    """
    lanes = sorted({scan.lane for scan in scans},
                   key=lambda lane: (lane != "main", lane))
    tids = {lane: n for n, lane in enumerate(lanes)}
    instants = [record.t for scan in scans for record in scan.records]
    epoch = min(instants) if instants else 0.0
    wall_anchor = None
    events: List[Dict[str, object]] = []

    for scan in scans:
        tid = tids[scan.lane]
        for gen in scan.generations():
            open_spans: Dict[int, EventRecord] = {}
            last_t = gen[-1].t if gen else epoch
            for record in gen:
                ts = _microseconds(record.t - epoch)
                if record.kind == "stream-open":
                    if wall_anchor is None and scan.lane == "main":
                        wall_anchor = record.attrs.get("wall")
                    continue
                if record.kind == "span-open":
                    open_spans[record.sid] = record
                elif record.kind == "span-close":
                    opened = open_spans.pop(record.sid, None)
                    if opened is None:
                        continue
                    events.append(_complete(
                        opened, record.attrs, tid, epoch, record.t))
                elif record.kind == "instant":
                    events.append({
                        "name": record.name, "cat": record.category,
                        "ph": "i", "s": "t", "pid": _PID, "tid": tid,
                        "ts": ts, "args": dict(record.attrs),
                    })
                elif record.kind == "gauge":
                    events.append({
                        "name": record.name, "cat": "metric",
                        "ph": "C", "pid": _PID, "tid": tid, "ts": ts,
                        "args": {"value": record.attrs.get("value")},
                    })
            for opened in open_spans.values():
                closed = dict(opened.attrs)
                closed["interrupted"] = True
                events.append(_complete(opened, closed, tid, epoch,
                                        last_t))

    metadata = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro (reconstructed from event stream)"},
    }]
    for lane in lanes:
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID,
            "tid": tids[lane], "args": {"name": lane},
        })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.stream",
            "event_schema": EVENT_SCHEMA,
            "epoch_wall_time": wall_anchor,
        },
    }


def _complete(opened: EventRecord, close_attrs: Dict[str, object],
              tid: int, epoch: float, end: float) -> Dict[str, object]:
    args = dict(opened.attrs)
    args.update(close_attrs)
    return {
        "name": opened.name, "cat": opened.category, "ph": "X",
        "pid": _PID, "tid": tid,
        "ts": _microseconds(opened.t - epoch),
        "dur": _microseconds(max(0.0, end - opened.t)),
        "args": args,
    }
