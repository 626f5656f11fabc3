"""The shared spool: on-disk state machine of the distributed grid.

A distributed screen is coordinated entirely through one directory —
the *spool* — shared by the broker and every worker.  There is no
socket, no server, no database: the filesystem's two atomic
primitives (``rename`` within a directory, ``replace`` onto a name)
are the whole concurrency model, which is exactly why a crashed
process can never leave the spool half-updated.

Layout::

    <spool>/
      pending/<key>.task     sealed ticket, claimable by any worker
      leased/<key>.task      the same ticket after an atomic-rename claim
      leased/<key>.lease     sealed lease: who holds it, until when
      results/<key>.result   sealed outcome (stats or a structured error)
      hb/<worker>.hb         heartbeat: latest monotonic instant, renamed in
      quarantine/            torn/corrupt files, moved aside, never deleted
      stream/<worker>.events.jsonl   per-worker telemetry lane (see
                             :mod:`repro.obs.stream`; append-only, torn-tail
                             tolerant — the one append-discipline record here)
      spool.json             sealed manifest describing the grid
      drain                  marker: workers must finish up and exit

``<key>`` is the content hash from :func:`repro.exec.cache.task_key`,
so the spool inherits the cache's dedup semantics: two grids asking
for the same cell share one ticket name, and a result file is valid
for *any* run that computes the same key.

Every durable record (ticket, lease, result, manifest) is sealed with
:func:`repro.guard.seal.seal`, so a torn write — the signature of a
process crashing mid-``write`` before the ``rename`` — is *impossible
to publish* (the rename never happened), and a corrupted published
file is detected by checksum and quarantined rather than trusted.
Heartbeats are the one unsealed record: they are overwritten many
times a second and their loss is self-describing (a missing or stale
beat *is* the signal).

Clocks: all instants in the spool are ``time.monotonic()`` values.
On a single host (the supported deployment: processes sharing one
filesystem) ``CLOCK_MONOTONIC`` is shared across processes, so a
lease deadline written by a worker is directly comparable to the
broker's clock.  Wall-clock time never enters the protocol.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import pickle
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cpu import SIMULATOR_VERSION
from repro.guard import faults
from repro.guard.errors import SealCorrupt, SealError
from repro.guard.seal import check, seal

__all__ = [
    "LEASE_KIND",
    "MANIFEST_KIND",
    "RESULT_KIND",
    "SPOOL_SCHEMA",
    "Spool",
    "TASK_KIND",
]

#: Format version of every sealed spool record.
SPOOL_SCHEMA = 1

TASK_KIND = "dist-task"
RESULT_KIND = "dist-result"
LEASE_KIND = "dist-lease"
MANIFEST_KIND = "dist-spool"

_DRAIN_NAME = "drain"
_MANIFEST_NAME = "spool.json"


def _encode(payload: dict, *, kind: str,
            version: Optional[str] = None) -> bytes:
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return seal(body, kind=kind, schema=SPOOL_SCHEMA,
                simulator_version=version)


def _decode(blob: bytes, *, kind: str,
            version: Optional[str] = None) -> dict:
    body = check(blob, kind=kind, schema=SPOOL_SCHEMA,
                 simulator_version=version)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SealCorrupt(
            f"sealed {kind} payload is not JSON: {exc}",
            reason="malformed-payload",
        ) from None
    if not isinstance(payload, dict):
        raise SealCorrupt(
            f"sealed {kind} payload is not an object",
            reason="malformed-payload",
        )
    return payload


def pack_obj(obj) -> str:
    """Pickle ``obj`` into a base64 string (for JSON embedding)."""
    return base64.b64encode(
        pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_obj(text: str):
    """Invert :func:`pack_obj`; corruption surfaces as
    :class:`~repro.guard.errors.SealCorrupt` so callers quarantine it
    on the same path as a bad checksum."""
    try:
        return pickle.loads(base64.b64decode(text, validate=True))
    except (TypeError, ValueError, binascii.Error,
            pickle.UnpicklingError, EOFError,
            AttributeError, ImportError) as exc:
        raise SealCorrupt(
            f"embedded pickle does not load: {exc}",
            reason="unpicklable",
        ) from None


class Spool:
    """One distributed grid's shared directory, with atomic accessors.

    All mutation goes through two patterns:

    * **publish** — write to a dot-prefixed temp name in the target
      directory, then ``os.replace`` onto the final name.  Readers
      never observe a partial file.
    * **claim** — ``os.rename(pending/<k>.task, leased/<k>.task)``.
      The filesystem guarantees exactly one renamer wins; every loser
      gets ``FileNotFoundError`` and moves on.  This *is* the lease
      acquisition: no lock file, no fencing token handshake.
    """

    def __init__(self, root: Union[str, os.PathLike], *,
                 version: str = SIMULATOR_VERSION):
        self.root = Path(root)
        self.version = str(version)
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self.results_dir = self.root / "results"
        self.hb_dir = self.root / "hb"
        self.quarantine_dir = self.root / "quarantine"
        self.stream_dir = self.root / "stream"

    def ensure(self) -> None:
        """Create the spool directory tree (idempotent)."""
        for directory in (self.pending_dir, self.leased_dir,
                          self.results_dir, self.hb_dir,
                          self.quarantine_dir, self.stream_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- atomic write primitive ------------------------------------

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        # The sanctioned publish seam (temp name, write, replace —
        # every step fault-injectable): under ENOSPC/EIO/torn-write/
        # rename faults the destination name is never visible torn,
        # so a worker that can *see* a ticket can claim it whole.
        # Two retries ride out a transient fault window; a persistent
        # outage propagates, and the broker's reclaim machinery (not
        # a corrupt file) is what re-covers the task.
        faults.publish_bytes(path, blob, retries=2)

    # -- manifest ---------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def write_manifest(self, *, n_tasks: int) -> None:
        payload = {"n_tasks": int(n_tasks), "sim": self.version,
                   "schema": SPOOL_SCHEMA}
        self._write_atomic(
            self.manifest_path,
            _encode(payload, kind=MANIFEST_KIND, version=self.version),
        )

    def read_manifest(self) -> Optional[dict]:
        try:
            blob = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        return _decode(blob, kind=MANIFEST_KIND, version=self.version)

    # -- tickets ----------------------------------------------------

    def task_path(self, key: str, *, leased: bool = False) -> Path:
        base = self.leased_dir if leased else self.pending_dir
        return base / f"{key}.task"

    def publish_task(self, key: str, index: int, attempt: int,
                     task) -> None:
        """Make one cell claimable (atomically; replaces any stale
        ticket of the same key)."""
        payload = {"key": key, "index": int(index),
                   "attempt": int(attempt), "task": pack_obj(task)}
        self._write_atomic(
            self.task_path(key),
            _encode(payload, kind=TASK_KIND, version=self.version),
        )

    def unpublish(self, key: str) -> None:
        self.task_path(key).unlink(missing_ok=True)

    def pending_keys(self) -> List[str]:
        return [p.stem
                for p in sorted(self.pending_dir.glob("*.task"))]

    def leased_keys(self) -> List[str]:
        return [p.stem
                for p in sorted(self.leased_dir.glob("*.task"))]

    def claim(self, key: str) -> bool:
        """Try to take the pending ticket; exactly one caller wins."""
        try:
            os.rename(self.task_path(key),
                      self.task_path(key, leased=True))
        except FileNotFoundError:
            return False
        return True

    def read_task(self, key: str) -> dict:
        """Load a *claimed* ticket; the embedded task is unpickled.

        Raises :class:`FileNotFoundError` if the broker reclaimed the
        ticket meanwhile, or a seal error on corruption.
        """
        blob = self.task_path(key, leased=True).read_bytes()
        payload = _decode(blob, kind=TASK_KIND, version=self.version)
        payload["task"] = unpack_obj(payload["task"])
        return payload

    # -- leases -----------------------------------------------------

    def lease_path(self, key: str) -> Path:
        return self.leased_dir / f"{key}.lease"

    def write_lease(self, key: str, worker: str, attempt: int,
                    ttl: float) -> float:
        """Record who holds ``key`` and until when; returns the
        deadline (a monotonic instant)."""
        deadline = time.monotonic() + float(ttl)
        payload = {"key": key, "worker": str(worker),
                   "attempt": int(attempt), "deadline": deadline}
        self._write_atomic(
            self.lease_path(key), _encode(payload, kind=LEASE_KIND)
        )
        return deadline

    def read_lease(self, key: str) -> Optional[dict]:
        """The lease record for ``key``, ``None`` if absent; seal
        errors propagate (the caller quarantines)."""
        try:
            blob = self.lease_path(key).read_bytes()
        except FileNotFoundError:
            return None
        return _decode(blob, kind=LEASE_KIND)

    def release(self, key: str, worker: Optional[str] = None) -> None:
        """Drop the leased ticket and lease for ``key``.

        With ``worker`` given, the files are only removed when the
        lease is absent or held by that worker — a worker that was
        reclaimed while stalled must not destroy its successor's
        lease.  The broker releases unconditionally (``worker=None``).
        """
        if worker is not None:
            try:
                lease = self.read_lease(key)
            except SealError:
                return  # torn lease: leave evidence for the broker
            if lease is not None and lease.get("worker") != worker:
                return
        self.lease_path(key).unlink(missing_ok=True)
        self.task_path(key, leased=True).unlink(missing_ok=True)

    # -- results ----------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.result"

    def write_result(self, key: str, *, index: int, attempt: int,
                     worker: str, ok: bool, stats=None,
                     error_type: str = "", message: str = "") -> None:
        payload = {
            "key": key, "index": int(index), "attempt": int(attempt),
            "worker": str(worker), "ok": bool(ok),
            "stats": pack_obj(stats) if ok else None,
            "error_type": str(error_type), "message": str(message),
        }
        self._write_atomic(
            self.result_path(key),
            _encode(payload, kind=RESULT_KIND, version=self.version),
        )

    def result_keys(self) -> List[str]:
        return [p.stem
                for p in sorted(self.results_dir.glob("*.result"))]

    def read_result(self, key: str) -> dict:
        """Load one sealed result; ``stats`` is unpickled when ok."""
        blob = self.result_path(key).read_bytes()
        payload = _decode(blob, kind=RESULT_KIND, version=self.version)
        if payload.get("ok"):
            payload["stats"] = unpack_obj(payload["stats"])
        return payload

    def remove_result(self, key: str) -> None:
        self.result_path(key).unlink(missing_ok=True)

    # -- heartbeats -------------------------------------------------

    def heartbeat(self, worker: str) -> None:
        """Publish ``worker``'s liveness as of now (monotonic)."""
        blob = f"{time.monotonic():.6f}\n".encode("ascii")
        self._write_atomic(self.hb_dir / f"{worker}.hb", blob)

    def read_heartbeats(self) -> Dict[str, float]:
        """worker id -> latest beat instant, unreadable beats skipped."""
        out: Dict[str, float] = {}
        for path in sorted(self.hb_dir.glob("*.hb")):
            try:
                out[path.stem] = float(path.read_bytes().split()[0])
            except (OSError, ValueError, IndexError):
                # An unreadable beat is indistinguishable from no
                # beat; staleness detection covers both.
                continue
        return out

    # -- drain & quarantine -----------------------------------------

    @property
    def drain_path(self) -> Path:
        return self.root / _DRAIN_NAME

    def drain(self) -> None:
        """Tell every worker to exit once its current task is done."""
        self._write_atomic(self.drain_path, b"drained\n")

    def clear_drain(self) -> None:
        self.drain_path.unlink(missing_ok=True)

    def draining(self) -> bool:
        return self.drain_path.exists()

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt file aside under its failure reason.

        Returns the quarantine path, or ``None`` when the file was
        already gone (another process got there first).
        """
        dest = self.quarantine_dir / f"{path.name}.{reason}"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        return dest
