"""End-to-end integrity guards for the simulation pipeline.

Everything downstream of the simulator — effect tables, rank sums,
classification trees, enhancement verdicts — is only as trustworthy
as the simulations and stored artifacts feeding it.  This package
makes that trust checkable at four layers:

* **Watchdogs** (:mod:`repro.guard.errors`, wired into
  :mod:`repro.cpu.pipeline`): a retirement-progress monitor raises
  :class:`SimulationHang` with a machine-state dump when the pipeline
  livelocks, and :meth:`~repro.cpu.stats.CoreStats.validate` raises
  :class:`StatsInvalid` on NaN/overflow-poisoned statistics.
* **Sealed artifacts** (:mod:`repro.guard.seal`): result-cache
  entries, journal headers, trace archives and run manifests share one
  self-describing header (kind, schema, simulator version, payload
  checksum); loaders quarantine anything that fails :func:`check`
  with a named reason instead of trusting or silently deleting it.
* **Sealed-line files** (:mod:`repro.guard.lines`): the journal, the
  cache segment and the event lanes share one walker, one flock'd
  appender with rollback, and one torn-tail rule.
* **Sampled re-execution audits** (:mod:`repro.guard.audit`):
  ``run_grid(audit=...)`` deterministically re-runs a fraction of
  cache/journal hits and compares bit-exact, raising
  :class:`AuditMismatch` carrying both payloads on divergence.
* **Offline verification** (:mod:`repro.guard.verify`, surfaced as
  ``repro verify <run-dir>``): cross-checks a finished run's manifest,
  journal, cache and effect tables, recomputing PB effects and rank
  sums from the journaled raw results.

The submodules this package eagerly re-exports (``errors``, ``seal``,
``audit``) are stdlib-only, so the simulator and the execution engine
can depend on them without import cycles; the heavyweight offline
verifier stays behind an explicit ``from repro.guard import verify``.
"""

from .audit import (
    AuditPolicy,
    differing_fields,
    verify_restored,
)
from .errors import (
    AuditMismatch,
    GuardViolation,
    SealCorrupt,
    SealError,
    SealMissing,
    SealTruncated,
    SealVersionDrift,
    SimulationHang,
    StatsInvalid,
    TraceCorrupt,
)
from .seal import MAGIC, check, read_header, seal

__all__ = [
    "AuditMismatch",
    "AuditPolicy",
    "GuardViolation",
    "MAGIC",
    "SealCorrupt",
    "SealError",
    "SealMissing",
    "SealTruncated",
    "SealVersionDrift",
    "SimulationHang",
    "StatsInvalid",
    "TraceCorrupt",
    "check",
    "differing_fields",
    "read_header",
    "seal",
    "verify_restored",
]
