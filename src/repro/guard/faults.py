"""Deterministic fault injection and the sanctioned write seam.

Every fault-tolerance claim in this tree — retries, per-task
timeouts, dead-worker resubmission, lease reclamation, journal
resume, and the disk-fault contracts of the cache, journal, spool,
event stream and sealed artifacts — is only trustworthy if it can be
*demonstrated*, repeatedly and bit-for-bit, against real failures.
This module is that test substrate: one injector whose schedule
covers four channels.

``task``
    The engine (and the distributed worker) hands every cell to
    :meth:`FaultInjector.fire` before executing it; ``raise``,
    ``delay``, ``kill``, ``interrupt`` and ``stall`` faults fire by
    **(task index, attempt number)**, iff ``attempt < n``.  ``n=1``
    fails the first try and succeeds on retry or resubmission;
    ``n=always`` exhausts any retry budget.  Attempt numbers are
    assigned by the supervising parent, so the schedule replays
    identically across worker pools, in-process runs and resumes.
``write`` / ``fsync`` / ``rename``
    Every durable writer performs the same filesystem operations:
    open a temp name, write bytes, maybe fsync, rename into place.
    This module is the *one* place those happen
    (:func:`publish_bytes`, :func:`vfs_write`, :func:`vfs_fsync`,
    :func:`vfs_replace` — the seam the REP105 static rule points
    at), and each seam call consumes one **operation index** on its
    channel.  ``enospc``, ``eio``, ``erofs`` and ``torn`` fire on
    ``write``, ``fsync`` on ``fsync``, ``rename`` on ``rename``, iff
    the channel's running counter falls inside ``[index, index + n)``.
    Counters are per-process: a fork worker starts from the parent's
    snapshot.

No randomness at fire time, no wall clock: the same spec against the
same run always faults the same cells and operations.

The injector is installed process-wide with :func:`install` /
:func:`uninstall` or the :func:`injected` context manager; a fork
pool started while one is installed inherits it.  For CI and CLI
experiments ``REPRO_FAULT_SPEC`` (see :meth:`FaultInjector.from_spec`)
is the one entry point: the experiment commands parse it before any
cell runs, and :func:`active` otherwise installs it at first use.

Under any injected (or real) disk fault every writer must satisfy one
of two contracts, documented per writer in ``docs/robustness.md``:

* **degrade loudly** — self-disable, count the failure, keep the run
  going (cache puts, event-stream lanes, telemetry artifacts); or
* **fail atomically** — no torn sealed artifact ever becomes visible
  (journal lines roll back, spool/results publishes leave only a
  temp file that is removed, never the destination name).

:func:`publish_bytes` implements the second contract directly: the
destination name is only ever touched by ``os.replace``, and the temp
file is unlinked on any failure, injected or real.
"""

from __future__ import annotations

import errno
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "ALWAYS",
    "ENV_VAR",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "active",
    "from_env",
    "injected",
    "install",
    "publish_bytes",
    "publish_text",
    "uninstall",
    "vfs_fsync",
    "vfs_replace",
    "vfs_write",
]

#: ``Fault.n`` value meaning "fire every time from ``index`` on".
ALWAYS = 10 ** 9

#: Exit status used when a kill-fault terminates a worker — visible in
#: the supervisor's logs and distinct from normal termination.
KILL_EXIT_CODE = 87

#: action -> the channel its faults fire on.
_CHANNELS = {
    "raise": "task",
    "delay": "task",
    "kill": "task",
    "interrupt": "task",
    "stall": "task",
    "enospc": "write",
    "eio": "write",
    "erofs": "write",
    "torn": "write",
    "fsync": "fsync",
    "rename": "rename",
}

#: The actions that sleep, and so take a ``seconds`` field.
_TIMED = ("delay", "stall")


class InjectedFault(RuntimeError):
    """The error raised by ``raise`` faults (and in-process kills)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes
    ----------
    action:
        Task channel:
        ``"raise"`` — raise :class:`InjectedFault`;
        ``"delay"`` — sleep ``seconds`` before executing (to trip
        per-task timeouts);
        ``"kill"`` — ``os._exit`` the executing worker process (in an
        in-process run, where exiting would kill the experiment
        itself, it degrades to :class:`InjectedFault`);
        ``"interrupt"`` — raise :class:`KeyboardInterrupt`, the
        scripted stand-in for Ctrl-C in resume tests;
        ``"stall"`` — sleep ``seconds`` through the injector's
        *uninstrumented* :attr:`FaultInjector.stall_sleep` clock.  In
        a distributed worker this simulates a hang: the worker stops
        heartbeating without dying, so the broker's missed-heartbeat
        detection — not mere lease expiry — has to recover the task.
        A plain ``delay`` keeps heartbeats flowing and exercises lease
        expiry instead.

        Write channel:
        ``"enospc"`` / ``"eio"`` / ``"erofs"`` — the write raises
        ``OSError`` with that errno before a byte lands (``erofs`` is
        the failover signature of a sick network filesystem);
        ``"torn"`` — half the bytes land, then ``OSError(ENOSPC)``
        (the disk filled mid-write).

        fsync and rename channels:
        ``"fsync"`` — the fsync raises ``OSError(EIO)`` (the caller
        must treat the data as not durable);
        ``"rename"`` — the ``os.replace`` raises ``OSError(EIO)`` (the
        publish never happened; the temp file is the only residue).
    index:
        The task index (task channel), or the first operation index on
        the action's channel.
    n:
        Task channel: how many attempts of task ``index`` fault
        (``1`` transient, :data:`ALWAYS` permanent).  I/O channels: the
        window of consecutive operations faulted from ``index`` on —
        "disk full for a while, then space restored" — or
        :data:`ALWAYS` for a permanent outage.
    seconds:
        Sleep length, for ``delay`` and ``stall`` only.
    """

    action: str
    index: int
    n: int = 1
    seconds: Optional[float] = None

    def __post_init__(self):
        if self.action not in _CHANNELS:
            raise ValueError(
                f"unknown action {self.action!r}; expected one of "
                f"{', '.join(_CHANNELS)}"
            )
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seconds is not None:
            if self.action not in _TIMED:
                raise ValueError(f"{self.action} takes no seconds")
            if self.seconds < 0:
                raise ValueError("seconds must be >= 0")

    @property
    def channel(self) -> str:
        return _CHANNELS[self.action]

    def __str__(self) -> str:
        """This fault as one :meth:`FaultInjector.from_spec` item."""
        fields = [self.action, str(self.index)]
        if self.n != 1 or self.seconds is not None:
            fields.append("always" if self.n >= ALWAYS else str(self.n))
        if self.seconds is not None:
            fields.append(str(self.seconds))
        return ":".join(fields)


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {text!r}") from None


def _parse_item(item: str) -> Fault:
    parts = [part.strip() for part in item.split(":")]
    if not 2 <= len(parts) <= 4:
        raise ValueError("expected action:index[:n[:seconds]]")
    n = 1
    if len(parts) > 2 and parts[2]:
        n = ALWAYS if parts[2].lower() == "always" \
            else _integer(parts[2], "n")
    seconds = None
    if len(parts) > 3:
        try:
            seconds = float(parts[3])
        except ValueError:
            raise ValueError(
                f"seconds must be a number, got {parts[3]!r}") from None
    return Fault(parts[0].lower(), _integer(parts[1], "index"), n,
                 seconds)


class FaultInjector:
    """A deterministic schedule of task and I/O faults.

    Parameters
    ----------
    faults:
        The schedule.  Where several faults match one cell or
        operation, the first listed wins.
    sleep:
        Clock used by ``delay`` faults; injectable for fast tests.
    stall_sleep:
        Clock used by ``stall`` faults.  Kept separate from ``sleep``
        so a distributed worker can leave it *un*-instrumented (no
        heartbeat pumping) while its ``delay`` sleeps stay observable
        — the difference between a worker that looks hung and one
        that is merely slow.

    Attributes
    ----------
    fired:
        Log of ``(channel, index, action)`` triples in fire order,
        where ``index`` is the task index on the ``task`` channel and
        the operation index elsewhere.  Per-process: a fork worker's
        log dies with the worker, so assert against it only for
        in-process runs.
    counts:
        Live per-channel operation counters (``write``, ``fsync``,
        ``rename``) — how many operations of each kind have crossed
        the seam in this process.
    """

    def __init__(self, faults: Iterable[Fault] = (), *,
                 sleep: Callable[[float], None] = time.sleep,
                 stall_sleep: Callable[[float], None] = time.sleep):
        self.faults: List[Fault] = list(faults)
        self.sleep = sleep
        self.stall_sleep = stall_sleep
        self.counts: Dict[str, int] = {
            "write": 0, "fsync": 0, "rename": 0,
        }
        self.fired: List[Tuple[str, int, str]] = []
        self._lock = threading.Lock()

    def __str__(self) -> str:
        """The schedule as a :meth:`from_spec` string."""
        return ",".join(map(str, self.faults))

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse a compact schedule string (the CI/CLI entry point).

        ``spec`` is comma-separated ``action:index[:n[:seconds]]``
        items, e.g. ``"kill:5,raise:12:2,delay:20:1:0.25,rename:0:3"``
        — kill the worker running task 5 once, fail task 12 on its
        first two attempts, delay task 20's first attempt by 0.25 s,
        fail the first three renames.  ``n`` may be ``always``.  A bad
        item raises ``ValueError`` naming it: an unknown action, a
        non-integer or negative index, trailing fields, or ``seconds``
        on an action other than ``delay``/``stall``.
        """
        faults: List[Fault] = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                faults.append(_parse_item(item))
            except ValueError as exc:
                raise ValueError(f"{item}: {exc}") from None
        return cls(faults)

    def fire(self, index: int, attempt: int, *,
             in_worker: bool = False) -> None:
        """Apply the task fault scheduled for ``(index, attempt)``.

        Called by the engine immediately before executing a cell.
        """
        fault = next((f for f in self.faults
                      if f.channel == "task" and f.index == index), None)
        if fault is None or attempt >= fault.n:
            return
        self.fired.append(("task", index, fault.action))
        if fault.action == "delay":
            self.sleep(fault.seconds or 0.0)
        elif fault.action == "stall":
            self.stall_sleep(fault.seconds or 0.0)
        elif fault.action == "kill":
            if in_worker:
                os._exit(KILL_EXIT_CODE)  # repro: noqa[REP204] -- kill fault simulates SIGKILL; recovery must come from the spool
            # In-process there is no worker to sacrifice; fail the
            # task instead so retry still has something to chew on.
            raise InjectedFault(
                f"injected in-process kill at task {index} "
                f"(attempt {attempt})"
            )
        elif fault.action == "interrupt":
            raise KeyboardInterrupt(
                f"injected interrupt at task {index}"
            )
        else:
            raise InjectedFault(
                f"injected failure at task {index} (attempt {attempt})"
            )

    def poll(self, channel: str) -> Optional[str]:
        """Consume one operation index on ``channel``; the action to
        inject there, or ``None``.  Called by the seam helpers only.
        """
        with self._lock:
            index = self.counts[channel]
            self.counts[channel] = index + 1
            for fault in self.faults:
                if fault.channel == channel and \
                        fault.index <= index < fault.index + fault.n:
                    self.fired.append((channel, index, fault.action))
                    return fault.action
        return None


#: The process-wide injector, if any.  Fork workers inherit it.
_ACTIVE: Optional[FaultInjector] = None
_ENV_CHECKED = False

#: Environment variable holding a :meth:`FaultInjector.from_spec`
#: schedule.
ENV_VAR = "REPRO_FAULT_SPEC"


def from_env() -> Optional[FaultInjector]:
    """The injector ``REPRO_FAULT_SPEC`` describes (``None`` if unset).

    Raises ``ValueError`` naming the offending item on a bad spec.
    """
    spec = os.environ.get(ENV_VAR)  # repro: noqa[REP006] -- REPRO_FAULT_SPEC is the sanctioned CI/CLI fault-schedule entry point
    return FaultInjector.from_spec(spec) if spec else None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE  # repro: noqa[REP004] -- process-wide by design; fork workers inherit the parent's injector
    _ACTIVE = injector


def uninstall() -> None:
    """Remove the active injector (idempotent)."""
    global _ACTIVE  # repro: noqa[REP004] -- process-wide by design, see install()
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The active injector, auto-installing from ``REPRO_FAULT_SPEC``.

    The environment is consulted once per process (a bad spec raises
    until fixed); explicit :func:`install` / :func:`uninstall` always
    wins afterwards.  With nothing installed this is one global check
    — the cost every cell and seam call pays.
    """
    global _ACTIVE, _ENV_CHECKED  # repro: noqa[REP004] -- once-per-process memoisation of the env probe
    if _ACTIVE is None and not _ENV_CHECKED:
        _ACTIVE = from_env()
        _ENV_CHECKED = True
    return _ACTIVE


@contextmanager
def injected(injector: FaultInjector):
    """Scope an injector to a ``with`` block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def _poll(channel: str) -> Optional[str]:
    injector = active()
    if injector is None:
        return None
    return injector.poll(channel)


# -- the seam primitives -------------------------------------------


def vfs_write(handle, data) -> None:
    """Write ``data`` (bytes or str) to an open handle via the seam.

    Consumes one ``write`` operation index.  An ``enospc``/``eio``
    fault raises before a byte lands; a ``torn`` fault writes half
    the data, flushes it so the damage is on disk, then raises
    ``OSError(ENOSPC)`` — the caller is responsible for rolling the
    file back (journal) or abandoning the temp name (publish).
    """
    action = _poll("write")
    if action == "torn":
        handle.write(data[: len(data) // 2])
        try:
            handle.flush()
        except (OSError, ValueError):
            pass
        raise OSError(
            errno.ENOSPC,
            "injected torn write: disk filled mid-write",
        )
    if action == "enospc":
        raise OSError(errno.ENOSPC, "injected ENOSPC")
    if action == "eio":
        raise OSError(errno.EIO, "injected EIO")
    if action == "erofs":
        raise OSError(errno.EROFS, "injected read-only filesystem")
    handle.write(data)


def vfs_fsync(fd: int) -> None:
    """``os.fsync`` via the seam (one ``fsync`` operation index)."""
    if _poll("fsync") is not None:
        raise OSError(errno.EIO, "injected fsync failure")
    os.fsync(fd)


def vfs_replace(src: Union[str, os.PathLike],
                dst: Union[str, os.PathLike]) -> None:
    """``os.replace`` via the seam (one ``rename`` operation index)."""
    if _poll("rename") is not None:
        raise OSError(errno.EIO, "injected rename failure")
    os.replace(src, dst)


def publish_bytes(path: Union[str, os.PathLike], blob: bytes, *,
                  fsync: bool = False, retries: int = 0) -> Path:
    """Atomically publish ``blob`` at ``path`` (the sanctioned dance).

    Writes to a dot-prefixed ``mkstemp`` name in the destination
    directory, optionally fsyncs, then ``os.replace``s onto the final
    name — every step through the fault seam.  On *any* failure the
    temp file is unlinked and the destination is untouched: a reader
    can never observe a torn artifact, which is the fail-atomically
    half of the degradation contract.

    ``retries`` re-runs the whole dance after a failure (each retry
    consumes fresh operation indices, so a transient fault window
    clears); the last failure propagates.
    """
    path = Path(path)
    last: Optional[BaseException] = None
    for _attempt in range(int(retries) + 1):
        try:
            _publish_once(path, blob, fsync=fsync)
            return path
        except OSError as exc:
            last = exc
    assert last is not None
    raise last


def publish_text(path: Union[str, os.PathLike], text: str, *,
                 encoding: str = "utf-8", fsync: bool = False,
                 retries: int = 0) -> Path:
    """:func:`publish_bytes` for text payloads."""
    return publish_bytes(Path(path), text.encode(encoding),
                         fsync=fsync, retries=retries)


def _publish_once(path: Path, blob: bytes, *, fsync: bool) -> None:
    # The temp marker ends the name (directory scans glob on final
    # suffixes like *.task / *.pkl, which an in-progress write must
    # never satisfy) and embeds the writer's pid so spool GC can tell
    # an orphaned temp file from one still being written.
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent),
        prefix=f".{path.name}.tmp-{os.getpid()}-",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            vfs_write(handle, blob)
            handle.flush()
            if fsync:
                vfs_fsync(handle.fileno())
        vfs_replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
