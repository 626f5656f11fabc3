"""The distributed worker: claim, heartbeat, execute, seal, repeat.

A worker is an independent OS process (started by ``repro worker`` or
:class:`DistWorker` directly) that attaches to a spool directory and
drains it: scan ``pending/``, win tickets by atomic rename, simulate
the embedded cell, seal the outcome into ``results/``.  Workers hold
no grid state — everything they need rides inside the sealed ticket —
so any number can attach or leave at any time, including mid-screen.

Liveness is advertised two ways, deliberately distinct:

* a **heartbeat** file, rewritten every ``heartbeat_interval`` by a
  daemon thread that beats *even while a task executes* — a slow task
  is alive, not hung;
* a **lease** with a wall-clock TTL written when a ticket is claimed
  — a task that outlives its lease is over budget even if the worker
  is demonstrably alive.

The two signals drive the broker's two recovery paths (see
:mod:`repro.dist.broker`), and the fault injector can exercise each
separately: a ``delay`` fault sleeps on the instrumented path (the
heartbeat thread keeps beating, so only the lease expires), while a
``stall`` fault routes through :meth:`DistWorker._stall_sleep`, which
suppresses the heartbeat for the duration — the scripted equivalent
of a worker wedged in uninterruptible sleep.

Crash semantics: a worker may die at any instant (``kill`` faults do
exactly that, via ``os._exit``).  Whatever it held is recovered by
the broker from the spool alone — the claimed ticket is still in
``leased/``, the lease names the dead worker, and the result either
sealed completely (the rename happened) or not at all.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, Union

from repro.cpu import SIMULATOR_VERSION
from repro.exec.engine import _execute
from repro.guard import faults
from repro.guard.errors import SealError
from repro.obs.stream import EventWriter

from .spool import Spool

__all__ = ["DistWorker"]


class DistWorker:
    """One worker process's run loop over a shared spool.

    Parameters
    ----------
    spool:
        The spool directory (or a :class:`~repro.dist.spool.Spool`).
    worker_id:
        Stable identity used in leases, heartbeats and results;
        defaults to ``w<pid>`` — unique per live process on one host,
        with no wall-clock or random entropy.
    poll:
        Sleep between empty scans of ``pending/``.
    lease_ttl:
        Wall-clock budget written into each claimed ticket's lease.
    heartbeat_interval:
        Period of the background beat.
    max_idle:
        Exit after this many seconds without claiming anything
        (``None``: only a drain marker stops the worker).
    max_tasks:
        Exit after executing this many tickets (``None``: unbounded);
        the chaos harness uses it to script short-lived workers.
    version:
        Simulator version the spool's sealed records must carry.
    stream:
        When true (the default), the worker appends its telemetry
        lane — ``stream/<worker_id>.events.jsonl`` under the spool —
        recording claims, lease acquisitions, heartbeat suppression
        and per-task run spans for the fleet aggregator
        (:mod:`repro.obs.fleet`).  Strictly observational: the lane
        writer disables itself on I/O failure and task execution is
        untouched either way.
    """

    def __init__(self, spool: Union[str, os.PathLike, Spool], *,
                 worker_id: Optional[str] = None,
                 poll: float = 0.05,
                 lease_ttl: float = 15.0,
                 heartbeat_interval: float = 0.5,
                 max_idle: Optional[float] = None,
                 max_tasks: Optional[int] = None,
                 version: str = SIMULATOR_VERSION,
                 stream: bool = True):
        self.spool = (spool if isinstance(spool, Spool)
                      else Spool(spool, version=version))
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.poll = poll
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_idle = max_idle
        self.max_tasks = max_tasks
        self.executed = 0
        self._suppress_hb = threading.Event()
        self._stop_hb = threading.Event()
        self.stream = None
        if stream:
            self.stream = EventWriter(
                self.spool.stream_dir
                / f"{self.worker_id}.events.jsonl",
                lane=self.worker_id, version=version,
            )

    # -- liveness ---------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop_hb.is_set():
            if not self._suppress_hb.is_set():
                try:
                    self.spool.heartbeat(self.worker_id)
                except OSError:
                    # A missed beat must never crash the worker; the
                    # broker reads absence as staleness.
                    pass
            self._stop_hb.wait(self.heartbeat_interval)

    def _stall_sleep(self, seconds: float) -> None:
        """Sleep *without* heartbeats — the injected-hang clock.

        Installed as the active fault injector's ``stall_sleep`` so a
        ``stall`` fault makes this worker look wedged: alive as a
        process, silent as a peer.
        """
        self._suppress_hb.set()
        self._mark("hb-suppressed", seconds=seconds)
        try:
            time.sleep(seconds)
        finally:
            self._suppress_hb.clear()
            self._mark("hb-resumed")

    def _mark(self, name: str, **attrs) -> None:
        """One instant on the worker's lane (no-op when unstreamed)."""
        if self.stream is not None:
            self.stream.mark(name, "worker", **attrs)

    # -- main loop --------------------------------------------------

    def run(self) -> int:
        """Drain the spool until told to stop; returns tasks executed."""
        self.spool.ensure()
        injector = faults.active()
        if injector is not None:
            injector.stall_sleep = self._stall_sleep
        # Announce before the first scan so the broker's attach grace
        # sees us even if the spool is momentarily empty.
        self.spool.heartbeat(self.worker_id)
        self._mark("worker-attach", pid=os.getpid(),
                   lease_ttl=self.lease_ttl,
                   heartbeat_interval=self.heartbeat_interval)
        thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"heartbeat-{self.worker_id}", daemon=True,
        )
        thread.start()
        last_work = time.monotonic()
        try:
            while True:
                if self.spool.draining():
                    break
                if self.max_tasks is not None \
                        and self.executed >= self.max_tasks:
                    break
                claimed = False
                for key in self.spool.pending_keys():
                    if self.spool.claim(key):
                        claimed = True
                        self._run_one(key)
                        last_work = time.monotonic()
                        break  # rescan: drain may have appeared
                if not claimed:
                    if self.max_idle is not None and \
                            time.monotonic() - last_work > self.max_idle:
                        break
                    time.sleep(self.poll)
        finally:
            self._stop_hb.set()
            thread.join(timeout=1.0)
            if self.stream is not None:
                # "detached" covers every exit the lane can witness
                # (drain, max-idle, max-tasks, Ctrl-C); a killed
                # worker writes nothing — the torn/short lane is the
                # signature the aggregator reads.
                self.stream.close("detached")
        return self.executed

    def _run_one(self, key: str) -> None:
        """Execute one claimed ticket end to end."""
        self._mark("claim", key=key[:12])
        try:
            ticket = self.spool.read_task(key)
        except FileNotFoundError:
            return  # reclaimed between claim and read; not ours anymore
        except SealError as exc:
            # A corrupt ticket is evidence, not work: move it aside so
            # the broker sees the key vanish and republishes.
            self.spool.quarantine(
                self.spool.task_path(key, leased=True), exc.reason
            )
            self.spool.release(key, self.worker_id)
            self._mark("ticket-quarantined", key=key[:12],
                       reason=exc.reason)
            return
        index = int(ticket["index"])
        attempt = int(ticket["attempt"])
        deadline = self.spool.write_lease(key, self.worker_id, attempt,
                                          self.lease_ttl)
        self._mark("lease-acquire", key=key[:12], index=index,
                   attempt=attempt, ttl=self.lease_ttl,
                   deadline=deadline)
        sid = (self.stream.open_span(
                   "task", "task", index=index, attempt=attempt,
                   key=key[:12])
               if self.stream is not None else None)
        injector = faults.active()
        try:
            if injector is not None:
                # in_worker=True: a kill fault takes this process down
                # for real — the broker must recover from the spool.
                injector.fire(index, attempt, in_worker=True)
            stats = _execute(ticket["task"])
        except KeyboardInterrupt:
            # Leave the leased ticket in place: the broker reclaims it
            # exactly as it would after a crash.
            raise
        except BaseException as exc:  # repro: noqa[REP007] -- every failure must be sealed into the spool so the broker can apply the retry policy
            self.spool.write_result(
                key, index=index, attempt=attempt,
                worker=self.worker_id, ok=False,
                error_type=type(exc).__name__, message=str(exc),
            )
            if sid is not None:
                self.stream.close_span(sid, ok=False,
                                       error=type(exc).__name__)
        else:
            self.spool.write_result(
                key, index=index, attempt=attempt,
                worker=self.worker_id, ok=True, stats=stats,
            )
            if sid is not None:
                self.stream.close_span(sid, ok=True)
        self.executed += 1
        self.spool.release(key, self.worker_id)
        self._mark("release", key=key[:12])
