"""The shared simulation execution engine.

Everything that measures a grid of (configuration, trace) pairs —
Plackett-Burman experiments, replicated designs, parameter sweeps,
iterative refinement, enhancement analyses — runs through
:func:`run_grid`, which adds worker-pool parallelism,
content-addressed result caching, and fault tolerance (supervised
workers, bounded retries, checkpoint/resume journals) while
guaranteeing results identical to the serial path.  See
:mod:`repro.exec.engine` for the execution model,
:mod:`repro.exec.cache` for the cache design,
:mod:`repro.exec.fault` for failure semantics, and
:mod:`repro.exec.journal` for the resume journal; the deterministic
fault injector the fault paths are tested with lives in
:mod:`repro.guard.faults`.
"""

from .cache import (
    ResultCache,
    canonical_blob,
    canonicalize,
    core_family,
    task_key,
)
from .engine import SimTask, grid_tasks, run_grid
from .fault import (
    FailureRecord,
    GridError,
    GridResult,
    RetryPolicy,
)
from .journal import (
    Journal,
    JournalRepair,
    JournalScan,
    repair_journal,
    scan_journal,
)

__all__ = [
    "FailureRecord",
    "GridError",
    "GridResult",
    "Journal",
    "JournalRepair",
    "JournalScan",
    "ResultCache",
    "RetryPolicy",
    "SimTask",
    "canonical_blob",
    "core_family",
    "canonicalize",
    "grid_tasks",
    "repair_journal",
    "run_grid",
    "scan_journal",
    "task_key",
]
