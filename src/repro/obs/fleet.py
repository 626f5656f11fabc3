"""Fleet aggregation: one coherent snapshot of a running grid.

A distributed screen scatters its observable state across the spool
(heartbeats, leases, tickets) and the event-log lanes each process
appends (:mod:`repro.obs.stream`).  :func:`fleet_snapshot` merges all
of it into a single :class:`FleetSnapshot` — the data model behind
``repro top`` — by reading *only* on-disk state, so it works equally
against a live run, a crashed one, or a finished one, from any
process on the host.

Per-worker state is classified from two independent liveness signals
plus the worker's own lane, most-severe first:

``exited``
    The lane's last generation ends in a ``stream-close`` — the
    worker left on purpose (drain, max-idle, Ctrl-C).
``dead``
    No heartbeat within ``dead_after`` seconds — the process is gone
    (or wedged far beyond stall territory).  A killed worker's lane
    just stops, often with a torn tail; the silence *is* the record.
``stalled``
    Beating less recently than ``heartbeat_grace`` but within
    ``dead_after`` — the broker would be reclaiming its leases now.
``executing``
    Holds at least one live lease.
``claiming``
    The lane's most recent event is a ``claim`` that has not yet
    produced a lease — the claim/lease handshake window.
``idle``
    Beating, holding nothing.

All ages are differences of ``CLOCK_MONOTONIC`` instants — heartbeat
files, lease deadlines and stream timestamps all use the clock shared
by every process on the host (:func:`repro.obs.clock.monotonic`), so
no wall-clock arithmetic enters the state machine.

Counter roll-ups sum, per lane, the deltas of the *latest writer
generation only* (counters reset at each ``stream-open``): a
restarted broker re-counts the cells it restores from the journal, so
summing across its generations would double-count — the latest
generation is the authoritative tally for that lane.  Per-name and
folded ``counter`` records sum alike
(:func:`~repro.obs.stream.counter_deltas`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import clock
from .stream import (
    StreamScan, counter_deltas, find_stream_lanes, scan_stream,
)

__all__ = ["FleetSnapshot", "WorkerView", "fleet_snapshot"]

#: Beat age past which a worker is ``stalled`` (matches the broker's
#: conservative default grace).
DEFAULT_HEARTBEAT_GRACE = 5.0


@dataclass
class WorkerView:
    """One worker's merged state."""

    worker: str
    state: str
    #: Seconds since the last heartbeat, ``None`` if never seen.
    beat_age: Optional[float] = None
    #: ``(key-prefix, seconds-until-deadline)`` per live lease.
    leases: List[Tuple[str, float]] = field(default_factory=list)
    tasks_done: int = 0
    tasks_failed: int = 0
    #: Name and age of the lane's most recent event.
    last_event: str = ""
    last_event_age: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker": self.worker, "state": self.state,
            "beat_age": self.beat_age,
            "leases": [{"key": key, "remaining": remaining}
                       for key, remaining in self.leases],
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "last_event": self.last_event,
            "last_event_age": self.last_event_age,
        }


@dataclass
class FleetSnapshot:
    """Everything ``repro top`` shows, as plain data."""

    root: Path
    workers: List[WorkerView]
    counters: Dict[str, int]
    gauges: Dict[str, object]
    #: ``{"done": N, "total": M}`` from the supervisor's progress
    #: records, or counter/manifest fallbacks; empty when unknown.
    progress: Dict[str, int]
    eta_seconds: Optional[float]
    #: lane name -> {"path", "records", "generations", "torn_tail",
    #: "damage"} for every lane merged in.
    lanes: Dict[str, Dict[str, object]]
    #: Wall-clock stamp of snapshot creation (annotation only).
    generated: float

    @property
    def complete(self) -> bool:
        """True when the progress records say every task finished."""
        total = self.progress.get("total", 0)
        return bool(total) and self.progress.get("done", 0) >= total

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "generated": self.generated,
            "progress": dict(self.progress),
            "eta_seconds": self.eta_seconds,
            "workers": [w.to_dict() for w in self.workers],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "lanes": {name: dict(info)
                      for name, info in sorted(self.lanes.items())},
        }

    def render(self) -> str:
        """The refreshing-terminal view, one snapshot as text."""
        lines: List[str] = []
        done = self.progress.get("done")
        total = self.progress.get("total")
        head = f"repro top — {self.root}"
        lines.append(head)
        lines.append("=" * len(head))
        if total:
            pct = 100.0 * done / total if total else 0.0
            bar = f"tasks {done}/{total} ({pct:.1f}%)"
            if self.eta_seconds is not None:
                bar += f"   eta ~{self.eta_seconds:.0f}s"
            lines.append(bar)
        depth = self.gauges.get("queue.depth")
        if depth is not None:
            lines.append(f"queue depth {depth}")
        key_counters = [
            (name, self.counters[name]) for name in (
                "tasks.completed", "tasks.retried", "cache.hits",
                "dist.results", "dist.reissued", "workers.deaths",
            ) if name in self.counters
        ]
        if key_counters:
            lines.append("   ".join(f"{name}={value}"
                                    for name, value in key_counters))
        lines.append("")
        if self.workers:
            header = (f"{'WORKER':<16} {'STATE':<10} {'BEAT':>7} "
                      f"{'LEASES':<22} {'DONE':>5} {'FAIL':>5}  LAST")
            lines.append(header)
            for view in self.workers:
                beat = (f"{view.beat_age:.1f}s"
                        if view.beat_age is not None else "-")
                leases = ",".join(
                    f"{key}({remaining:+.0f}s)"
                    for key, remaining in view.leases[:2]
                ) or "-"
                last = view.last_event or "-"
                if view.last_event_age is not None:
                    last += f" {view.last_event_age:.1f}s ago"
                lines.append(
                    f"{view.worker:<16} {view.state:<10} {beat:>7} "
                    f"{leases:<22} {view.tasks_done:>5} "
                    f"{view.tasks_failed:>5}  {last}"
                )
        else:
            lines.append("(no workers observed)")
        torn = [name for name, info in sorted(self.lanes.items())
                if info.get("torn_tail")]
        if torn:
            lines.append("")
            lines.append(
                "torn lanes (crash signatures): " + ", ".join(torn))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _find_spool(root: Path) -> Optional[Path]:
    """The spool directory reachable from ``root``, if any."""
    for candidate in (root, root / "spool"):
        if (candidate / "hb").is_dir() \
                or (candidate / "spool.json").is_file():
            return candidate
    return None


def _latest_generation_rollup(scan: StreamScan):
    """Counters / gauges / progress from the lane's last generation."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, object] = {}
    progress: Dict[str, int] = {}
    generations = scan.generations()
    for record in (generations[-1] if generations else ()):
        if record.kind == "counter":
            for name, delta in counter_deltas(record).items():
                counters[name] = counters.get(name, 0) + delta
        elif record.kind == "gauge":
            gauges[record.name] = record.attrs.get("value")
        elif record.kind == "progress":
            progress = {"done": int(record.attrs.get("done", 0)),
                        "total": int(record.attrs.get("total", 0))}
    return counters, gauges, progress


def _task_tallies(scan: StreamScan):
    """(done, failed, durations) from a worker lane's task spans."""
    done = failed = 0
    durations: List[float] = []
    for gen in scan.generations():
        opens: Dict[int, float] = {}
        for record in gen:
            if record.kind == "span-open" and record.name == "task":
                opens[record.sid] = record.t
            elif record.kind == "span-close" \
                    and record.sid in opens:
                durations.append(record.t - opens.pop(record.sid))
                if record.attrs.get("ok"):
                    done += 1
                else:
                    failed += 1
    return done, failed, durations


def fleet_snapshot(
    root: Union[str, os.PathLike], *,
    heartbeat_grace: float = DEFAULT_HEARTBEAT_GRACE,
    dead_after: Optional[float] = None,
) -> FleetSnapshot:
    """Merge spool liveness and event lanes under ``root``.

    ``root`` may be a run directory (stream under ``stream/``, spool
    under ``spool/`` when co-located), a spool directory, or a bare
    stream directory — whatever exists is merged; what does not is
    simply absent from the snapshot.
    """
    root = Path(root)
    if dead_after is None:
        dead_after = max(4.0 * heartbeat_grace, 10.0)
    now = clock.monotonic()

    scans: Dict[str, StreamScan] = {}
    for path in find_stream_lanes(root):
        try:
            scan = scan_stream(path)
        except OSError:
            continue
        scans[scan.lane] = scan

    beats: Dict[str, float] = {}
    leases: Dict[str, List[Tuple[str, float]]] = {}
    spool_total: Optional[int] = None
    spool_dir = _find_spool(root)
    if spool_dir is not None:
        from repro.dist.spool import Spool
        from repro.guard.errors import SealError

        spool = Spool(spool_dir)
        beats = spool.read_heartbeats()
        for key in spool.leased_keys():
            try:
                lease = spool.read_lease(key)
            except SealError:
                continue  # torn lease: the broker's problem, not ours
            if lease is None:
                continue
            remaining = float(lease.get("deadline", 0.0)) - now
            leases.setdefault(str(lease.get("worker", "")), []).append(
                (key[:12], remaining))
        try:
            manifest = spool.read_manifest()
        except SealError:
            manifest = None
        if manifest:
            spool_total = int(manifest.get("n_tasks", 0)) or None

    counters: Dict[str, int] = {}
    gauges: Dict[str, object] = {}
    progress: Dict[str, int] = {}
    lane_info: Dict[str, Dict[str, object]] = {}
    durations: List[float] = []
    worker_tallies: Dict[str, Tuple[int, int]] = {}

    for lane, scan in sorted(scans.items()):
        lane_counters, lane_gauges, lane_progress = \
            _latest_generation_rollup(scan)
        for name, value in lane_counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(lane_gauges)
        if lane == "main" and lane_progress:
            progress = lane_progress
        done, failed, lane_durations = _task_tallies(scan)
        durations.extend(lane_durations)
        if lane != "main":
            worker_tallies[lane] = (done, failed)
        lane_info[lane] = {
            "path": str(scan.path),
            "records": len(scan.records),
            "generations": len(scan.generations()),
            "torn_tail": scan.torn_tail,
            "damage": len(scan.damage),
        }

    if not progress:
        done = counters.get("tasks.completed")
        total = spool_total
        if done is not None and total:
            progress = {"done": done, "total": total}

    workers: List[WorkerView] = []
    names = sorted(set(beats) | set(leases) - {""}
                   | {lane for lane in scans if lane != "main"})
    for name in names:
        scan = scans.get(name)
        closed = False
        last_event, last_age = "", None
        if scan is not None and scan.records:
            generations = scan.generations()
            closed = any(r.kind == "stream-close"
                         for r in generations[-1])
            tail = scan.records[-1]
            last_event = tail.name or tail.kind
            last_age = max(0.0, now - tail.t)
        beat_age = (max(0.0, now - beats[name])
                    if name in beats else None)
        held = sorted(leases.get(name, ()))
        if closed:
            state = "exited"
        elif beat_age is None:
            state = "silent"
        elif beat_age > dead_after:
            state = "dead"
        elif beat_age > heartbeat_grace:
            state = "stalled"
        elif held:
            state = "executing"
        elif last_event == "claim":
            state = "claiming"
        else:
            state = "idle"
        done, failed = worker_tallies.get(name, (0, 0))
        workers.append(WorkerView(
            worker=name, state=state, beat_age=beat_age,
            leases=held, tasks_done=done, tasks_failed=failed,
            last_event=last_event, last_event_age=last_age,
        ))

    eta = None
    if progress.get("total"):
        remaining = progress["total"] - progress.get("done", 0)
        executing = sum(1 for w in workers
                        if w.state in ("executing", "claiming"))
        if remaining > 0 and durations:
            mean = sum(durations) / len(durations)
            eta = remaining * mean / max(1, executing)
        elif remaining <= 0:
            eta = 0.0

    return FleetSnapshot(
        root=root, workers=workers, counters=counters,
        gauges=gauges, progress=progress, eta_seconds=eta,
        lanes=lane_info, generated=clock.wall_time(),
    )
