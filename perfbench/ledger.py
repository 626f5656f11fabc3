"""Span recording and time accounting for the screen benchmark.

The benchmark times each layer from outside the program: it wraps the
objects it hands to the engine (cache, journal, event-stream writer,
progress callback) and a few module-level entry points for the length
of one traced repetition, and copies in the ``run``/``queue`` spans the
engine's own tracer already emits.  Everything lands in one
:class:`Recorder`, a :class:`repro.obs.Tracer` with no stream sink (so
the run's event log is not perturbed), kept in memory and exported
with :func:`repro.obs.chrome_trace` once the run ends.

:func:`ledger` turns those spans into a partition of the screen's wall
time: every instant of the parent process's timeline belongs to the
innermost call open at that instant, and whatever no timed call covers
is reported as its own remainder row.  A span that lies outside the
screen or overlaps another without nesting in it is an error
(:class:`LedgerError`), not something to clip.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.obs import Span, Tracer

#: Track of the benchmark's own process; pool worker ``N`` is
#: ``1 + N``, as in :mod:`repro.obs.span`.
PARENT_TRACK = 0

#: Clock disagreement tolerated between spans that should touch
#: (epoch re-basing of copied spans rounds in the last bits).
SLACK_S = 1e-6

#: Ledger row that absorbs parent time no timed call covers.
REMAINDER_ROW = "exec.engine.other_s"
#: Ledger row for uncovered parent time while a pool cell is in flight.
POOL_WAIT_ROW = "exec.pool.wait_s"

#: Span name -> ledger row.  Names missing here are structure spans
#: (the screen itself, the engine's ``grid``/``preload``/``pb-design``/
#: ``rank`` phases) whose uncovered time is the remainder.
ROW_OF = {
    "workloads.decode": "workloads.decode_s",
    "workloads.fingerprint": "workloads.fingerprint_s",
    "exec.task_key": "exec.task_key_s",
    "exec.cache.get": "exec.cache.get_s",
    "exec.cache.put": "exec.cache.put_s",
    "exec.journal.get": "exec.journal.get_s",
    "exec.journal.record": "exec.journal.record_s",
    "exec.progress": "exec.progress_s",
    "obs.stream.append": "obs.stream.append_s",
    "obs.stream.close": "obs.stream.append_s",
    "run": "cpu.simulate_s",
    "pb-analyze": "core.analyze_s",
    "core.rank": "core.analyze_s",
    "guard.write_results": "guard.write_results_s",
}

#: Every row :func:`ledger` reports, in display order.
LEDGER_ROWS = tuple(dict.fromkeys(ROW_OF.values())) + (
    POOL_WAIT_ROW, REMAINDER_ROW,
)


class LedgerError(ValueError):
    """The recorded spans do not form a timeline of nested calls."""


class Recorder(Tracer):
    """A sink-less tracer that records wrapped calls as spans."""

    def timed(self, name: str, call):
        """``call`` wrapped so each invocation records a span."""
        begin, finish = self.begin, self.finish
        category = name.split(".")[0]

        def wrapper(*args, **kwargs):
            span = begin(name, category)
            try:
                return call(*args, **kwargs)
            finally:
                finish(span)

        wrapper.__wrapped__ = call
        return wrapper

    def call(self, name: str, call, *args, **kwargs):
        """Invoke ``call`` once, recording it as ``name``."""
        return self.timed(name, call)(*args, **kwargs)

    def wrap(self, obj, attribute: str, name: str) -> None:
        """Shadow ``obj.attribute`` with a timed version (instance only)."""
        setattr(obj, attribute, self.timed(name, getattr(obj, attribute)))

    @contextmanager
    def patched(self, owner, attribute: str, name: str) -> Iterator[None]:
        """Time ``owner.attribute`` (a class or module) for a block."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.timed(name, original))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def adopt(self, tracer: Tracer) -> None:
        """Copy ``tracer``'s closed spans onto this recorder's timeline."""
        shift = tracer.epoch - self.epoch
        for span in tracer.spans():
            if span.end is not None:
                self._spans.append(dataclasses.replace(
                    span, attributes=dict(span.attributes),
                    start=span.start + shift, end=span.end + shift))

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans() if span.name == name]


# -- arithmetic ------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks
    (NumPy's default method); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def union(intervals: Iterable[Tuple[float, float]]) \
        -> List[Tuple[float, float]]:
    """Merge ``(start, end)`` pairs into disjoint, sorted pairs."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlap(segments: Sequence[Tuple[float, float]],
            covered: Sequence[Tuple[float, float]]) -> float:
    """Seconds of ``segments`` that fall inside ``covered``; both are
    sorted lists of disjoint pairs."""
    total = 0.0
    j = 0
    for start, end in segments:
        while j < len(covered) and covered[j][1] <= start:
            j += 1
        k = j
        while k < len(covered) and covered[k][0] < end:
            total += min(end, covered[k][1]) - max(start, covered[k][0])
            k += 1
    return total


def innermost_segments(root: Span, nested: Sequence[Span]) \
        -> List[Tuple[str, float, float]]:
    """Partition ``root`` among properly nested spans.

    Returns ``(name, start, end)`` segments that tile ``[root.start,
    root.end]`` exactly: each instant goes to the innermost span open
    at it.  Raises :class:`LedgerError` for a span outside ``root`` or
    one that overlaps another without nesting in it, beyond
    :data:`SLACK_S` of clock rounding.
    """
    segments: List[Tuple[str, float, float]] = []
    stack: List[Tuple[str, float]] = [(root.name, root.end)]
    now = root.start

    def advance(to: float) -> None:
        nonlocal now
        if to > now:
            segments.append((stack[-1][0], now, to))
            now = to

    for span in sorted(nested, key=lambda s: (s.start, -s.end)):
        if span.start < root.start - SLACK_S \
                or span.end > root.end + SLACK_S:
            raise LedgerError(
                f"{span.name!r} [{span.start!r}, {span.end!r}] lies "
                f"outside {root.name!r} [{root.start!r}, {root.end!r}]")
        while len(stack) > 1 and span.start >= stack[-1][1] - SLACK_S:
            advance(stack[-1][1])
            stack.pop()
        if span.end > stack[-1][1] + SLACK_S:
            raise LedgerError(
                f"{span.name!r} [{span.start!r}, {span.end!r}] overlaps "
                f"{stack[-1][0]!r} (ending {stack[-1][1]!r}) without "
                "nesting in it")
        advance(span.start)
        stack.append((span.name, min(span.end, stack[-1][1])))
    while stack:
        advance(stack[-1][1])
        stack.pop()
    return segments


def ledger(root: Span, spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of ``root`` per :data:`LEDGER_ROWS` row.

    Parent-track synchronous spans are partitioned by
    :func:`innermost_segments`.  Time left to a structure span goes to
    :data:`POOL_WAIT_ROW` while a worker-track ``run`` span is open
    and to :data:`REMAINDER_ROW` otherwise.  The rows sum to
    ``root.duration``.
    """
    parent = [span for span in spans
              if span.track == PARENT_TRACK and not span.asynchronous
              and not span.instant]
    in_flight = union((span.start, span.end) for span in spans
                      if span.name == "run" and span.track != PARENT_TRACK)
    rows = dict.fromkeys(LEDGER_ROWS, 0.0)
    uncovered = []
    for name, start, end in innermost_segments(root, parent):
        row = ROW_OF.get(name)
        if row is None:
            uncovered.append((start, end))
        else:
            rows[row] += end - start
    waited = overlap(union(uncovered), in_flight)
    rows[POOL_WAIT_ROW] = waited
    rows[REMAINDER_ROW] = sum(end - start for start, end in uncovered) \
        - waited
    return rows
