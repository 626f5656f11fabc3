"""Exporters: Chrome trace JSON, metrics JSONL, Prometheus text.

* **Perfetto / ``about:tracing``** — :func:`chrome_trace` renders a
  :class:`~repro.obs.span.Tracer` as Chrome trace-event JSON
  (``{"traceEvents": [...]}``).  Sync spans become complete (``"X"``)
  events on named tracks (track 0 is the grid supervisor, track 1+N is
  worker lane N); async spans (queue waits) become ``"b"``/``"e"``
  pairs keyed by their deterministic identity; instant events become
  ``"i"`` marks.  Load the file via "Open trace file" in
  https://ui.perfetto.dev or ``chrome://tracing``.
  :func:`repro.obs.stream.trace_from_streams` replays event lanes into
  spans and renders them through the same code.
* **Tools** — :func:`write_metrics_jsonl` dumps a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot as one JSON
  object per line, sorted by metric name, alongside the run's journal;
  :func:`prometheus_text` renders a snapshot in the Prometheus text
  exposition format.

:func:`scrub_trace` is the determinism half: it reduces a trace to its
*structure* (names, categories, attributes — no timestamps, no track
assignments, no recording order), which must be identical across two
runs of the same grid.  Tests and external diff tooling share it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.guard import faults

from .metrics import MetricsRegistry
from .span import SUPERVISOR_TRACK, Span, Tracer

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "scrub_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
]

#: Synthetic process id for all trace events (one run = one process).
_PID = 1


def _microseconds(seconds: float) -> int:
    return int(round(seconds * 1e6))


def _args(span: Span) -> Dict[str, object]:
    return {k: span.attributes[k] for k in sorted(span.attributes)}


def chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """The tracer's spans as a Chrome trace-event document.

    Still-open spans (an interrupted run) are closed first and marked
    ``interrupted=True`` rather than dropped, so a truncated trace
    still accounts for the time spent.
    """
    tracer.close_open_spans()
    spans = tracer.spans()
    tracks = sorted({SUPERVISOR_TRACK} | {span.track for span in spans})
    return _trace_document(
        spans,
        threads={track: "supervisor" if track == SUPERVISOR_TRACK
                 else f"worker-{track - 1}" for track in tracks},
        process="repro",
        other={"producer": "repro.obs",
               "epoch_wall_time": tracer.epoch_wall},
    )


def _trace_document(spans: Sequence[Span], *, threads: Dict[int, str],
                    process: str, other: Dict[str, object],
                    gauges: Sequence[Tuple[str, int, float, object]] = (),
                    ) -> Dict[str, object]:
    """The one Chrome trace-event renderer, for spans from a
    :class:`~repro.obs.span.Tracer` or replayed from event lanes.

    A span's ``track`` is its thread id; ``threads`` names every
    thread.  Sync spans become ``"X"`` events, async spans ``"b"`` /
    ``"e"`` pairs keyed by :meth:`Span.ident`, instants ``"i"`` marks,
    and each ``(name, tid, seconds, value)`` gauge sample a ``"C"``
    counter event.
    """
    events: List[Dict[str, object]] = []
    for span in spans:
        common = {
            "name": span.name,
            "cat": span.category,
            "pid": _PID,
            "tid": span.track,
            "ts": _microseconds(span.start),
        }
        if span.instant:
            events.append({**common, "ph": "i", "s": "t",
                           "args": _args(span)})
        elif span.asynchronous:
            ident = span.ident()
            events.append({**common, "ph": "b", "id": ident,
                           "args": _args(span)})
            events.append({
                **common, "ph": "e", "id": ident,
                "ts": _microseconds(span.end),
            })
        else:
            events.append({
                **common, "ph": "X",
                "dur": _microseconds(span.duration),
                "args": _args(span),
            })
    for name, tid, seconds, value in gauges:
        events.append({
            "name": name, "cat": "metric", "ph": "C", "pid": _PID,
            "tid": tid, "ts": _microseconds(seconds),
            "args": {"value": value},
        })
    metadata = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": process},
    }]
    for tid in sorted(threads):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID,
            "tid": tid, "args": {"name": threads[tid]},
        })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(tracer: Tracer,
                       path: Union[str, os.PathLike]) -> Path:
    """Write :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    faults.publish_text(
        path, json.dumps(chrome_trace(tracer), sort_keys=True),
        retries=2,
    )
    return path


#: Event fields that legitimately differ between two identical runs:
#: every timestamp, plus track/lane assignment (which worker happened
#: to pick a task up).  Async ``id`` fields are *kept*: they derive
#: from span content (:meth:`repro.obs.span.Span.ident`), so they must
#: match across runs.
_VOLATILE_FIELDS = ("ts", "dur", "tid", "pid")


def scrub_trace(trace: Dict[str, object]) -> List[str]:
    """The trace reduced to sorted, timestamp-free structure lines.

    Two runs of the same grid must produce *equal* scrubbed traces:
    the same spans with the same names, categories, phases and
    attributes, regardless of worker scheduling, recording order, or
    how long anything took.  Volatile per-run detail (timestamps,
    durations, worker-lane numbers, the wall-clock anchor) is dropped;
    everything else is kept, canonically JSON-encoded, and sorted.
    """
    lines = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "M":
            continue  # thread names embed worker-lane numbers
        kept = {
            k: v for k, v in event.items() if k not in _VOLATILE_FIELDS
        }
        args = kept.get("args")
        if isinstance(args, dict):
            kept["args"] = {
                k: v for k, v in args.items() if k != "worker"
            }
        lines.append(json.dumps(kept, sort_keys=True))
    return sorted(lines)


def write_metrics_jsonl(registry: MetricsRegistry,
                        path: Union[str, os.PathLike]) -> Path:
    """One JSON line per metric, sorted by name; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps({"name": name, **fields}, sort_keys=True)
        for name, fields in registry.snapshot().items()
    ]
    faults.publish_text(path, "".join(line + "\n" for line in lines),
                         retries=2)
    return path


def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) \
            else str(value)
    return "NaN"


def prometheus_text(snapshot: Dict[str, Dict[str, object]],
                    labels: Optional[Dict[str, str]] = None) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    ``snapshot`` is the :meth:`MetricsRegistry.snapshot` shape
    (``name -> {"type": ..., ...fields}``) — which the fleet
    aggregator also synthesizes from its counter/gauge roll-ups, so
    one exporter serves live registries and reconstructed streams
    alike.  Dotted names become underscored with a ``repro_`` prefix;
    histograms expand to ``_count`` / ``_sum`` / ``_min`` / ``_max``
    series; gauges also export their ``_peak``.  Optional ``labels``
    are attached to every sample (e.g. ``{"run": "..."}``).
    """
    label_text = ""
    if labels:
        inner = ",".join(
            '{}="{}"'.format(k, str(v).replace("\\", "\\\\")
                             .replace('"', '\\"'))
            for k, v in sorted(labels.items())
        )
        label_text = "{" + inner + "}"
    lines: List[str] = []
    for name in sorted(snapshot):
        fields = snapshot[name]
        kind = fields.get("type")
        base = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total{label_text} "
                         f"{_prom_value(fields.get('value'))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{label_text} "
                         f"{_prom_value(fields.get('value'))}")
            if "peak" in fields:
                lines.append(f"# TYPE {base}_peak gauge")
                lines.append(f"{base}_peak{label_text} "
                             f"{_prom_value(fields['peak'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {base} summary")
            lines.append(f"{base}_count{label_text} "
                         f"{_prom_value(fields.get('count'))}")
            lines.append(f"{base}_sum{label_text} "
                         f"{_prom_value(fields.get('sum'))}")
            for extreme in ("min", "max"):
                lines.append(f"{base}_{extreme}{label_text} "
                             f"{_prom_value(fields.get(extreme))}")
    return "\n".join(lines) + "\n"
