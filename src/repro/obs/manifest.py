"""Run manifests: one JSON document describing one run.

A manifest answers, months later, "what exactly produced this
output?": the command and its workload, a content fingerprint of the
experiment inputs, the simulator version, the interpreter and
platform, every engine setting that shaped execution (jobs, cache,
retry policy, timeout, journal), the active fault-injection spec, and
the final metrics snapshot.  Together with the journal (ground truth
of *what* ran) and the trace (ground truth of *when*), it completes
the run's provenance record.

The schema is deliberately flat and versioned (:data:`SCHEMA_VERSION`)
so downstream tooling — the ``BENCH_*.json`` perf-trajectory files the
benchmark harness emits, CI assertions — can consume it with plain
``json.load`` and a handful of key checks.  Field values are either
reproducible facts (fingerprint, versions, settings) or clearly
volatile annotations (timestamps, host platform, elapsed seconds);
:func:`RunManifest.to_dict` keeps them in separate top-level groups so
a diff between two manifests separates signal from noise.

Schema v2 adds an ``integrity`` group: the JSON-native equivalent of
the binary seal envelope (:mod:`repro.guard.seal`) — artifact kind,
schema version, simulator version, and a SHA-256 over the canonical
encoding of the other groups.  ``json.load`` keeps working untouched;
:func:`load_manifest` is the checking loader, raising the same typed
:class:`~repro.guard.errors.SealError` family every other sealed
artifact uses when a manifest was tampered with, truncated-and-
reassembled, or written under a different schema.

Schema v3 (current) extends the artifact vocabulary for the live
telemetry layer: ``run.artifacts`` may now record ``stream`` (the
event-log directory of :mod:`repro.obs.stream`) and ``profile`` (the
per-phase profile directory of :mod:`repro.obs.profile`), and
``run.settings`` records the corresponding ``stream``/``profile``
options.  The integrity envelope is unchanged; the bump exists so a
consumer that understands streams can tell at a glance whether a run
could have produced any.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.guard import faults
from repro.guard.errors import SealCorrupt, SealMissing, SealVersionDrift

from . import clock

__all__ = ["RunManifest", "config_fingerprint", "load_manifest"]

#: v1 had no ``integrity`` group; v2 added one; v3 (current) adds the
#: stream/profile artifact vocabulary.
SCHEMA_VERSION = 3

#: Seal ``kind`` tag manifests carry in their ``integrity`` group.
MANIFEST_KIND = "manifest"


def _integrity_digest(doc: Dict[str, object]) -> str:
    """SHA-256 over the canonical encoding of a manifest's payload
    groups (everything except ``integrity`` itself)."""
    payload = {k: v for k, v in doc.items() if k != "integrity"}
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 of a canonicalized experiment-input description.

    Uses the execution engine's canonical JSON encoding
    (:func:`repro.exec.cache.canonical_blob`) so the fingerprint is
    insensitive to mapping order and representation accidents, exactly
    like a cache key.  Callers pass whatever identifies the run's
    inputs: benchmark names, trace lengths, enhancement settings,
    design parameters.
    """
    from repro.exec.cache import canonical_blob

    return hashlib.sha256(canonical_blob(payload)).hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one telemetry-enabled run.

    Build one per command invocation (or per benchmark session), call
    :meth:`finalize` when the run ends, and :meth:`write` it next to
    the trace and metrics artifacts.
    """

    command: str
    #: Content fingerprint of the experiment inputs (see
    #: :func:`config_fingerprint`); ``None`` when the caller has no
    #: meaningful input description.
    fingerprint: Optional[str] = None
    #: Engine settings that shaped execution (jobs, cache, retry, ...).
    settings: Dict[str, object] = field(default_factory=dict)
    #: Workload description (benchmarks, trace length, ...).
    workload: Dict[str, object] = field(default_factory=dict)
    #: The ``REPRO_FAULT_SPEC`` in effect, if any.
    fault_spec: Optional[str] = None
    #: Final metrics snapshot (see
    #: :meth:`repro.obs.metrics.MetricsRegistry.snapshot`).
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Sibling artifact paths (trace file, metrics file, journal).
    artifacts: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        from repro.cpu import SIMULATOR_VERSION

        self.simulator_version = SIMULATOR_VERSION
        self.python_version = platform.python_version()
        self.platform = platform.platform()
        self.argv = list(sys.argv)
        self.created = clock.wall_time()
        self._t0 = clock.elapsed()
        self.elapsed_seconds: Optional[float] = None
        self.exit_status: Optional[str] = None

    def finalize(self, *, status: str = "completed",
                 metrics: Optional[Dict] = None) -> "RunManifest":
        """Stamp the outcome: elapsed time, status, final metrics."""
        self.elapsed_seconds = clock.elapsed() - self._t0
        self.exit_status = status
        if metrics is not None:
            self.metrics = metrics
        return self

    def to_dict(self) -> Dict[str, object]:
        """The manifest as a JSON-ready dict (stable key groups).

        ``run`` holds reproducible facts, ``host`` the environment
        annotations, ``outcome`` the volatile results — so diffing two
        manifests of the same experiment shows differences exactly
        where differences are expected.
        """
        doc = {
            "schema": SCHEMA_VERSION,
            "run": {
                "command": self.command,
                "fingerprint": self.fingerprint,
                "simulator_version": self.simulator_version,
                "settings": dict(self.settings),
                "workload": dict(self.workload),
                "fault_spec": self.fault_spec,
                "artifacts": dict(self.artifacts),
            },
            "host": {
                "python_version": self.python_version,
                "platform": self.platform,
                "argv": self.argv,
                "created": self.created,
            },
            "outcome": {
                "exit_status": self.exit_status,
                "elapsed_seconds": self.elapsed_seconds,
                "metrics": self.metrics,
            },
        }
        doc["integrity"] = {
            "kind": MANIFEST_KIND,
            "schema": SCHEMA_VERSION,
            "sim": self.simulator_version,
            "sha256": _integrity_digest(doc),
        }
        return doc

    def write(self, path: Union[str, os.PathLike]) -> Path:
        """Write the manifest as indented JSON; returns the path.

        Publishes atomically through the sanctioned seam
        (:func:`repro.guard.faults.publish_text`): a reader — or
        ``repro verify`` after a crash — never sees a torn manifest,
        only the previous one or none.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        faults.publish_text(
            path,
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            retries=2,
        )
        return path


def load_manifest(path: Union[str, os.PathLike],
                  *, simulator_version: Optional[str] = None) \
        -> Dict[str, object]:
    """Load a manifest and verify its ``integrity`` group.

    Raises the typed seal errors of :mod:`repro.guard.errors`:
    :class:`SealMissing` for a v1/foreign manifest without an
    integrity group, :class:`SealVersionDrift` on schema (or, when
    ``simulator_version`` is given, simulator) drift, and
    :class:`SealCorrupt` when the recomputed payload digest disagrees
    — i.e. any group was edited after the run wrote it.  Returns the
    parsed document.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SealCorrupt(
            f"{path}: unparseable manifest: {exc}",
            reason="malformed", artifact=str(path),
        ) from None
    if not isinstance(doc, dict) or "integrity" not in doc:
        raise SealMissing(
            f"{path}: manifest carries no integrity group "
            "(schema v1 or foreign document)",
            artifact=str(path),
        )
    integrity = doc["integrity"]
    if not isinstance(integrity, dict) \
            or integrity.get("kind") != MANIFEST_KIND:
        raise SealCorrupt(
            f"{path}: integrity group is not a manifest seal",
            reason="wrong-kind", artifact=str(path),
        )
    if integrity.get("schema") != SCHEMA_VERSION \
            or doc.get("schema") != SCHEMA_VERSION:
        raise SealVersionDrift(
            f"{path}: manifest schema v{doc.get('schema')} != "
            f"expected v{SCHEMA_VERSION}",
            reason="schema-drift", artifact=str(path),
        )
    if simulator_version is not None \
            and integrity.get("sim") != str(simulator_version):
        raise SealVersionDrift(
            f"{path}: manifest written under simulator "
            f"{integrity.get('sim')!r}, expected {simulator_version!r}",
            artifact=str(path),
        )
    if _integrity_digest(doc) != integrity.get("sha256"):
        raise SealCorrupt(
            f"{path}: manifest payload does not match its integrity "
            "digest — the document was edited after it was written",
            artifact=str(path),
        )
    return doc
