"""The experiment broker: publish, watch, reclaim, harvest.

:func:`run_dist` is the distributed counterpart of the engine's fork
pool, and deliberately speaks the *same* dispatch protocol — it takes
the engine's grid and the pending cells, stores through
``grid.store``, reports failed attempts to ``grid.failed`` and returns
its leftovers — so every grid guarantee — task-order determinism, retry accounting,
caching, journaling, audits, telemetry — is enforced by exactly one
implementation, in the broker's process.  Workers compute; the broker
decides.

Failure matrix (every row is exercised by the chaos tests):

=====================  ==========================  ====================
worker state           broker evidence             recovery
=====================  ==========================  ====================
dead (kill/OOM)        heartbeat goes stale        reclaim lease, count
                                                   a ``worker-died``
                                                   resubmission,
                                                   republish
hung (stall fault)     heartbeat goes stale        same as dead — a
                       while the process lives     silent worker is
                                                   indistinguishable
slow (delay fault)     heartbeats flow but the     reclaim as a
                       lease deadline passes       ``timeout`` attempt
crashed mid-claim      ticket in ``leased/`` with  grace period, then
                       no lease record             reclaim
crashed mid-write      no published file at all    key vanishes from
(or quarantined        for the key                 the spool —
torn ticket)                                       republish
torn result/lease      seal check fails            quarantine the file,
                                                   reclaim, republish
broker dies            sealed spool + journal      restart adopts
                       survive                     results and
                                                   in-flight tickets
no worker ever         no heartbeat within the     degrade: unpublish,
attaches               attach grace                drain, hand the
                                                   cells back for
                                                   local execution
=====================  ==========================  ====================

Exactly-once, stated precisely: *execution* is at-least-once (a
reclaimed-but-alive worker and its replacement may both simulate a
cell), but *results* are effectively exactly-once because (a) the
simulator is deterministic, so duplicate executions seal
byte-identical payloads under the same content key, and (b) the
broker routes every harvest through the grid's ``resolved`` set and
content-keyed cache/journal, which are idempotent per key.  A
duplicate result is therefore indistinguishable from the first —
there is nothing it could disagree with.

Resubmission stampedes: when a worker dies holding several leases (or
many leases expire in one sweep), every reclaimed key becomes
republishable at once.  Republish instants are spread with the retry
policy's seeded jitter (token = task key), so the schedule is
deterministic yet de-correlated — see
:class:`repro.exec.fault.RetryPolicy`.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, List, Set

from repro.guard import faults, retention
from repro.guard.errors import SealError

from .spool import Spool

__all__ = ["CHAOS_EXIT_CODE", "run_dist"]

#: Exit status of a scripted broker crash (a ``crash`` fault on the
#: ``harvest`` channel of ``REPRO_FAULT_SPEC``) — distinct from worker
#: kills (87) so logs attribute each death.
CHAOS_EXIT_CODE = 86


def run_dist(grid, pending: List[int]) -> List[int]:
    """Drive ``pending`` cells through the spool; returns leftovers.

    The return value is empty on a completed distributed run; when
    the broker degrades (no worker attached within the grace) it is
    the still-unresolved indices, which ``run_grid`` finishes locally.
    Invoked only through ``run_grid(dist=...)``: ``grid`` is the
    engine's private per-run grid, the same one its pool and serial
    paths take.
    """
    options, obs, resolved = grid.options.dist, grid.obs, grid.resolved
    injector = faults.active()
    spool = Spool(options.spool, version=grid.options.version)
    spool.ensure()
    spool.clear_drain()
    spool.write_manifest(n_tasks=len(pending))

    #: key -> all grid indices sharing it (duplicate cells collapse
    #: into one ticket; every index is stored on harvest).
    by_key: Dict[str, List[int]] = {}
    for i in pending:
        by_key.setdefault(grid.key(i), []).append(i)
    primary = {key: indices[0] for key, indices in by_key.items()}

    start = time.monotonic()
    lanes: Dict[str, int] = {}
    stale_workers: Set[str] = set()
    republish_at: Dict[str, float] = {}
    claim_seen: Dict[str, float] = {}
    harvested = 0
    degraded = False

    dist_span = obs.begin("dist", "grid", spool=str(spool.root),
                          cells=len(pending), keys=len(by_key))
    for name in ("dist.published", "dist.results", "dist.reissued",
                 "dist.reclaimed.heartbeat", "dist.reclaimed.lease",
                 "dist.quarantined",
                 # The pool path's fleet surface, mirrored here so a
                 # local and a distributed snapshot expose the same
                 # metric names: attached workers count as spawned,
                 # stale transitions as deaths.
                 "workers.spawned", "workers.deaths"):
        obs.count(name, 0)  # register up front: stable snapshot shape
    obs.gauge("queue.depth", 0)

    def _unsettled(key: str) -> bool:
        return any(i not in resolved for i in by_key[key])

    def _leftover() -> List[int]:
        return [i for i in pending if i not in resolved]

    def _lane(worker: str) -> int:
        if worker and worker not in lanes:
            lanes[worker] = len(lanes) + 1
            obs.count("dist.workers")
            obs.count("workers.spawned")
            obs.event("worker-attach", "dist", track=lanes[worker],
                      worker=worker)
        return lanes.get(worker, 0)

    def _publish(key: str) -> None:
        i = primary[key]
        spool.publish_task(key, i, grid.attempt(i), grid.tasks[i])
        obs.count("dist.published")

    def _reclaim(key: str, kind: str, why: str) -> None:
        """Take a leased key back and account one failed attempt."""
        spool.release(key)
        i = primary[key]
        counter = ("dist.reclaimed.lease" if kind == "timeout"
                   else "dist.reclaimed.heartbeat")
        obs.count(counter)
        obs.event("lease-reclaim", "dist", index=i, reason=why)
        if grid.failed(i, kind, "",
                       f"lease on task {i} reclaimed ({why})"):
            republish_at[key] = time.monotonic() + grid.options.retry.delay(
                max(1, grid.attempt(i)), token=key
            )

    def _harvest() -> None:
        nonlocal harvested
        for key in spool.result_keys():
            if key not in by_key:
                continue  # another grid's leftovers; not ours to touch
            try:
                record = spool.read_result(key)
            except SealError as exc:
                # A torn result is a crash signature: quarantine it
                # and recover the key as a worker death.
                spool.quarantine(spool.result_path(key), exc.reason)
                obs.count("dist.quarantined")
                if _unsettled(key) and key not in republish_at:
                    _reclaim(key, "worker-died", "torn-result")
                continue
            if not _unsettled(key):
                continue  # duplicate from a reclaimed-but-alive worker
            lane = _lane(str(record.get("worker", "")))
            if record.get("ok"):
                if injector is not None \
                        and injector.poll("harvest") == "crash":
                    # Scripted broker crash: no drain marker, no
                    # cleanup — workers live on, and a restarted
                    # broker must resume from the sealed spool alone.
                    os._exit(CHAOS_EXIT_CODE)  # repro: noqa[REP204] -- scripted chaos crash; skipping atexit/finally is the point
                republish_at.pop(key, None)
                spool.unpublish(key)
                spool.release(key)
                obs.count("dist.results")
                obs.count("tasks.simulated")
                obs.event("dist-result", "dist", track=lane,
                          index=primary[key], outcome="ok")
                stats = record["stats"]
                for i in by_key[key]:
                    if i not in resolved:
                        grid.store(i, stats)
                harvested += 1
            else:
                spool.remove_result(key)
                spool.release(key)
                obs.event("dist-result", "dist", track=lane,
                          index=primary[key], outcome="error",
                          error=record.get("error_type", ""))
                i = primary[key]
                if grid.failed(i, "error",
                               str(record.get("error_type", "")),
                               str(record.get("message", ""))):
                    # grid.failed already applied the retry pause.
                    republish_at[key] = time.monotonic()

    try:
        # A restarted broker adopts before it publishes: results that
        # sealed while it was dead resolve immediately, and tickets
        # already pending or claimed keep flowing without duplication.
        _harvest()
        in_flight = set(spool.pending_keys()) | set(spool.leased_keys())
        for key in sorted(by_key):
            if not _unsettled(key):
                continue
            if key in in_flight:
                obs.count("dist.adopted")
            else:
                _publish(key)

        while _leftover():
            _harvest()
            if not _leftover():
                break
            now = time.monotonic()

            for key in sorted(republish_at):
                if not _unsettled(key):
                    republish_at.pop(key)
                elif republish_at[key] <= now:
                    republish_at.pop(key)
                    _publish(key)

            beats = spool.read_heartbeats()
            for worker in beats:
                _lane(worker)
            for worker, at in beats.items():
                stale = now - at > options.heartbeat_grace
                if stale and worker not in stale_workers:
                    stale_workers.add(worker)
                    obs.count("dist.workers.stale")
                    obs.count("workers.deaths")
                    obs.event("worker-stale", "dist",
                              track=_lane(worker), worker=worker)
                elif not stale:
                    stale_workers.discard(worker)

            for key in spool.leased_keys():
                if key not in by_key or not _unsettled(key) \
                        or key in republish_at:
                    continue
                try:
                    lease = spool.read_lease(key)
                except SealError as exc:
                    spool.quarantine(spool.lease_path(key), exc.reason)
                    obs.count("dist.quarantined")
                    _reclaim(key, "worker-died", "torn-lease")
                    continue
                if lease is None:
                    # Claim won, lease not yet written: either a
                    # worker mid-handshake or one that died in the
                    # gap.  Give it one grace window, then recover.
                    first = claim_seen.setdefault(key, now)
                    if now - first > options.heartbeat_grace:
                        claim_seen.pop(key)
                        _reclaim(key, "worker-died", "no-lease")
                    continue
                claim_seen.pop(key, None)
                if lease.get("worker") in stale_workers:
                    _reclaim(key, "worker-died", "heartbeat")
                elif float(lease.get("deadline", 0.0)) < now:
                    _reclaim(key, "timeout", "lease-expired")

            pending_now = spool.pending_keys()
            obs.gauge("queue.depth", len(pending_now))
            present = set(pending_now)
            present.update(spool.leased_keys())
            present.update(spool.result_keys())
            for key in sorted(by_key):
                if _unsettled(key) and key not in present \
                        and key not in republish_at:
                    # The key vanished without a result — a worker
                    # quarantined a torn ticket, or a crash ate it.
                    obs.count("dist.reissued")
                    _publish(key)

            if not lanes and now - start > options.attach_grace:
                for key in spool.pending_keys():
                    spool.unpublish(key)
                warnings.warn(
                    "no distributed worker attached to "
                    f"{spool.root} within {options.attach_grace:.3g}s; "
                    "running remaining cells locally",
                    RuntimeWarning, stacklevel=3,
                )
                obs.count("dist.degraded")
                obs.event("dist-degraded", "dist", reason="no-workers")
                degraded = True
                break

            time.sleep(options.poll)
    finally:
        # Reached on completion, degradation, and any propagating
        # failure (GridError, AuditMismatch, Ctrl-C) — workers must
        # not be left polling a dead grid.  The scripted crash
        # (os._exit above) bypasses this on purpose.
        spool.drain()
        if options.spool_budget_results is not None:
            # Retention: sealed results whose every grid index is
            # stored are *consumed* — a restarted broker would skip
            # them anyway — so a long-lived shared spool stays within
            # its budget without an operator running ``repro gc``.
            consumed = {key for key in by_key if not _unsettled(key)}
            report = retention.gc_spool(
                spool.root, consumed=consumed,
                budget_results=options.spool_budget_results,
            )
            obs.count("spool.gc.results", report.spool_results_removed)
        obs.finish(dist_span, harvested=harvested,
                   degraded=degraded, workers=len(lanes))
    return _leftover() if degraded else []
