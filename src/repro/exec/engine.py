"""Parallel, cached, fault-tolerant execution of simulation grids.

Every experiment in this repository — the 88-run Plackett-Burman
screen, its foldover and replicated variants, parameter sweeps,
iterative refinement, enhancement before/after studies — reduces to
the same primitive: simulate a grid of independent (configuration,
trace) pairs and collect one :class:`~repro.cpu.stats.CoreStats` per
cell.  :func:`run_grid` is that primitive, shared by all of them, and
:class:`ExecOptions` is its one set of knobs.

Guarantees:

* **Determinism** — results are returned in task order, keyed by task
  index rather than completion order, so downstream effects and ranks
  are bit-identical whether the grid ran on 1 worker or 16, and
  whether or not any cell was retried, resubmitted after a worker
  death, or restored from a journal.
* **Parallelism** — with ``jobs >= 2`` the grid fans out across a
  supervised pool of fork workers.  Each worker runs one task at a
  time with one more sent ahead, so it never waits on the
  supervisor's bookkeeping; the supervisor tracks per-task deadlines,
  detects workers that die or hang, resubmits their in-flight cells
  (bounded), and falls back to in-process execution if the pool
  keeps losing workers.
* **Fault tolerance** — a :class:`~repro.exec.fault.RetryPolicy`
  bounds re-attempts of failing cells; ``on_error`` chooses between
  failing fast (``"raise"``), retrying then failing (``"retry"``),
  and annotating the cell and carrying on (``"skip"``), in which case
  the returned :class:`~repro.exec.fault.GridResult` holds ``None``
  for the failed cells and a
  :class:`~repro.exec.fault.FailureRecord` for each in
  ``.failures``.
* **Durability** — ``journal=`` appends every completed cell to an
  append-only :class:`~repro.exec.journal.Journal`; an interrupted
  grid resumes from its completed cells even with no result cache
  configured.
* **Caching** — with a :class:`~repro.exec.cache.ResultCache`, each
  task is first looked up by its content hash (see
  :func:`~repro.exec.cache.task_key`); only misses are simulated, and
  fresh results are written back for the next run.  A failing cache
  write (disk full, read-only directory) is reported once and never
  aborts the grid.
* **Graceful fallback** — ``jobs=1``, a single pending task, or a
  platform without ``fork`` (e.g. Windows) all take the plain
  in-process path with identical results.
* **Observability** — ``telemetry=`` (a
  :class:`repro.obs.Telemetry`) records the full task lifecycle as
  spans (queue wait, worker run, cache/journal restores, retries,
  timeouts, worker deaths) and counters (tasks
  completed/failed/retried, cache hits/misses, queue depth, per-task
  wall seconds).  Telemetry is strictly observational: every hook runs
  on the same guarded path as the ``progress`` callback — a raising
  observer warns once and is then ignored — and results are
  bit-identical with telemetry on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Optional,
    Sequence, Set, Tuple, Union,
)

from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.cpu.pipeline import simulate
from repro.cpu.stats import CoreStats
from repro.guard import faults
from repro.guard.audit import AuditPolicy, verify_restored
from repro.guard.errors import AuditMismatch
from repro.workloads import Trace

from .cache import ResultCache, task_key
from .fault import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY_POLICY,
    ON_ERROR_MODES,
    FailureRecord,
    GridError,
    GridResult,
    RetryPolicy,
)
from .journal import Journal

if TYPE_CHECKING:  # loaded at run time only when ``dist`` is set
    from repro.dist.options import DistOptions

__all__ = ["ExecOptions", "SimTask", "run_grid", "grid_tasks"]


@dataclass(frozen=True, eq=False)
class SimTask:
    """One independent cell of a simulation grid.

    Fields mirror :func:`repro.cpu.simulate`'s inputs; the precompute
    table is a ``frozenset`` so tasks stay hashable and immutable.
    ``core`` picks the simulator implementation
    (:data:`repro.cpu.SIMULATOR_CORES`) — a speed knob, not a model
    knob, since all cores are field-exact equivalent; only its
    normalized family enters the cache key (see
    :func:`repro.exec.cache.task_key`).
    """

    config: MachineConfig
    trace: Trace
    precompute_table: Optional[FrozenSet[int]] = None
    prefetch_lines: int = 0
    warmup: bool = True
    core: str = "batched"


def grid_tasks(
    configs: Sequence[MachineConfig],
    traces,
    *,
    precompute_tables=None,
    prefetch_lines: int = 0,
    warmup: bool = True,
    core: str = "batched",
) -> List[SimTask]:
    """The row-major (config, benchmark) task list for a full grid.

    Task ``i * len(traces) + j`` is configuration ``i`` on benchmark
    ``j`` (in ``traces`` iteration order) — the same nesting the serial
    loops always used, so positions map back trivially.
    """
    precompute_tables = precompute_tables or {}
    tasks = []
    for config in configs:
        for bench, trace in traces.items():
            table = precompute_tables.get(bench)
            tasks.append(SimTask(
                config=config,
                trace=trace,
                precompute_table=(
                    frozenset(table) if table is not None else None
                ),
                prefetch_lines=prefetch_lines,
                warmup=warmup,
                core=core,
            ))
    return tasks


def _execute(task: SimTask) -> CoreStats:
    table = (
        set(task.precompute_table)
        if task.precompute_table is not None else None
    )
    return simulate(
        task.config, task.trace,
        precompute_table=table,
        warmup=task.warmup,
        prefetch_lines=task.prefetch_lines,
        core=task.core,
    )


#: True in pool worker processes; lets kill-faults know whether there
#: is a sacrificial process to exit.
_IN_WORKER = False


def _execute_cell(task: SimTask, index: int, attempt: int) -> CoreStats:
    """Execute one cell, giving the fault injector its shot first."""
    injector = faults.active()
    if injector is not None:
        injector.fire(index, attempt, in_worker=_IN_WORKER)
    return _execute(task)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Supervised worker pool
# ---------------------------------------------------------------------------

#: Supervisor poll period: how often deadlines and worker liveness are
#: checked while waiting for results.
_POLL_SECONDS = 0.05

#: Per-task resubmissions granted after a worker death, independent of
#: the error retry policy (a dying worker is an infrastructure fault,
#: not evidence against the task).
_MAX_RESUBMITS = 2


def _worker_main(tasks, conn) -> None:
    """Pool worker loop: one task at a time, results keyed by index.

    Any exception — including an injected one — is reported as a
    structured error result rather than crashing the worker, so the
    supervisor can apply the retry policy.  Only an actual process
    death (kill fault, OOM, segfault) takes the worker down.  Results
    go out on the worker's own pipe synchronously, before the next
    cell is read, so a worker that dies on its next cell has already
    delivered the one before.
    """
    global _IN_WORKER  # repro: noqa[REP004] -- per-process flag, set only in the child after fork
    _IN_WORKER = True
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        index, attempt = message
        try:
            stats = _execute_cell(tasks[index], index, attempt)
            payload = (index, True, stats)
        except BaseException as exc:  # repro: noqa[REP007] -- worker must report every failure (incl. injected interrupts) to the supervisor, which re-applies interrupt semantics
            payload = (index, False, (type(exc).__name__, str(exc)))
        try:
            conn.send(payload)
        except Exception:  # pragma: no cover - broken result pipe
            os._exit(1)  # repro: noqa[REP204] -- result pipe is gone; nothing a dying worker can report survives cleanup


class _Worker:
    """One supervised worker process and its dispatch state.

    A worker holds at most two cells: ``current``, the one it runs (as
    far as the supervisor knows), and ``queued``, sent ahead into its
    pipe so it can start as soon as ``current`` is done.
    """

    def __init__(self, context, tasks):
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(tasks, child), daemon=True,
        )
        self.process.start()
        child.close()
        #: (index, deadline) of the running task, or None when idle.
        self.current: Optional[Tuple[int, Optional[float]]] = None
        #: (index, attempt) of the task sent ahead, or None.
        self.queued: Optional[Tuple[int, int]] = None

    def send(self, index: int, attempt: int) -> None:
        self.conn.send((index, attempt))

    def stop(self) -> None:
        """Best-effort shutdown: polite for idle, forceful for busy."""
        if self.process.is_alive():
            if self.current is None and self.queued is None:
                try:
                    self.conn.send(None)
                except Exception:
                    self.process.terminate()
            else:
                self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


class _PoolUnhealthy(Exception):
    """Internal: too many worker deaths; degrade to in-process."""


# ---------------------------------------------------------------------------
# Guarded observation (progress callback + telemetry)
# ---------------------------------------------------------------------------

class _Observer:
    """Fans engine events out to the progress callback and telemetry,
    with every call guarded.

    Observation must never abort execution: a user ``progress``
    callback that raises, or a broken tracer/metrics hook, is reported
    once as a :class:`RuntimeWarning` and silenced thereafter — the
    grid carries on either way.  All methods are no-ops when the
    corresponding sink is absent, so an un-instrumented run pays a
    single attribute check per event.

    The telemetry argument is duck-typed (``tracer`` / ``metrics`` /
    ``simulator_counters`` / ``stream`` attributes) so this module
    needs no import of :mod:`repro.obs`.  With a ``stream`` lane
    attached, progress (done/total) is additionally appended to the
    event log — the ETA input the fleet view reads; spans and metrics
    reach the stream through their own sinks.
    """

    def __init__(self, progress, telemetry):
        self._progress = progress
        self.tracer = getattr(telemetry, "tracer", None)
        self.metrics = getattr(telemetry, "metrics", None)
        self.stream = getattr(telemetry, "stream", None)
        self.simulator_counters = (
            self.metrics is not None
            and bool(getattr(telemetry, "simulator_counters", False))
        )
        self._warned = False

    def _guard(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except Exception as exc:
            if not self._warned:
                self._warned = True
                warnings.warn(
                    "progress/telemetry callback failed "
                    f"({type(exc).__name__}: {exc}); suppressing "
                    "further observer errors — the grid continues",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None

    def progress(self, done: int, total: int) -> None:
        if self._progress is not None:
            self._guard(self._progress, done, total)
        if self.stream is not None:
            self._guard(self.stream.progress, done, total)

    # -- spans ------------------------------------------------------

    def begin(self, name, category, **attrs):
        if self.tracer is None:
            return None
        return self._guard(self.tracer.begin, name, category, **attrs)

    def begin_async(self, name, category, **attrs):
        if self.tracer is None:
            return None
        return self._guard(
            self.tracer.begin, name, category, asynchronous=True,
            **attrs,
        )

    def finish(self, span, **attrs) -> None:
        if self.tracer is not None and span is not None:
            self._guard(self.tracer.finish, span, **attrs)

    def finish_open(self, span, **attrs) -> None:
        """Finish ``span`` only if nothing finished it already."""
        if span is not None and getattr(span, "end", True) is None:
            self.finish(span, **attrs)

    def event(self, name, category, **attrs) -> None:
        if self.tracer is not None:
            self._guard(self.tracer.event, name, category, **attrs)

    # -- metrics ----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        # amount == 0 still registers the instrument, so snapshots
        # have a stable shape (e.g. ``cache.hits`` on an all-miss run).
        if self.metrics is not None:
            self._guard(self.metrics.count, name, amount)

    def gauge(self, name: str, value) -> None:
        if self.metrics is not None:
            self._guard(self.metrics.set_gauge, name, value)

    def observe(self, name: str, value) -> None:
        if self.metrics is not None:
            self._guard(self.metrics.observe, name, value)

    def completed(self, stats: CoreStats, simulated: bool) -> None:
        """Count one completed cell: ``tasks.completed``, plus
        ``tasks.simulated`` if it was executed rather than restored
        and, opt-in, its simulator counters under ``sim.*`` — one
        registry call, so a streamed run appends one folded
        ``counter`` record per cell (tolerates stats restored from
        pre-attribution caches).
        """
        if self.metrics is not None:
            self._guard(self._completed, stats, simulated)

    def _completed(self, stats: CoreStats, simulated: bool) -> None:
        deltas = {"tasks.completed": 1}
        if simulated:
            deltas["tasks.simulated"] = 1
        if self.simulator_counters:
            deltas["sim.cycles"] = int(stats.cycles)
            deltas["sim.instructions"] = int(stats.instructions)
            deltas["sim.precompute_hits"] = int(stats.precompute_hits)
            stalls = getattr(stats, "stall_cycles", None) or {}
            for cause, cycles in stalls.items():
                deltas["sim.stall." + cause] = int(cycles)
        self.metrics.count_many(deltas)


# ---------------------------------------------------------------------------
# Engine options
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecOptions:
    """How :func:`run_grid` executes a grid: the engine's one options value.

    Every grid entry point — :meth:`repro.core.PBExperiment.run`, the
    sweeps, the workflow, the enhancement and replication studies —
    takes these fields as keyword arguments and hands them on
    untouched to :func:`run_grid`, which builds this value (an unknown
    keyword raises ``TypeError`` there).  Construction validates and
    normalizes, so a built value is ready to run.

    Parameters
    ----------
    jobs:
        Worker processes, ``>= 1``.  ``1`` runs in-process; higher
        values fan pending cells out over a supervised fork pool
        (in-process where ``fork`` is unavailable).  Results are
        identical at any value.
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`: hits skip
        simulation, misses are written back.  A failing cache write is
        reported once as a :class:`RuntimeWarning` and never aborts
        the grid.
    journal:
        A :class:`~repro.exec.journal.Journal` or a path to one.  Cells
        it holds are restored without simulation and every newly
        completed cell is appended, so an interrupted grid resumes.
    retry:
        :class:`~repro.exec.fault.RetryPolicy` for failing cells.
        ``None`` resolves to no retries under ``on_error="raise"``
        (which then fails fast, re-raising the cell's own exception)
        and to the default policy (3 attempts, no backoff) under
        ``"retry"``/``"skip"``.
    timeout:
        Per-cell wall-clock budget in seconds, ``> 0``; ``None`` sets
        none.  Enforced on the pool path (an in-process cell cannot be
        preempted): a cell over budget has its worker killed and
        counts as one failed attempt of kind ``"timeout"``.
    on_error:
        ``"raise"`` propagates a cell's failure; ``"retry"`` retries
        per policy, then raises :class:`~repro.exec.fault.GridError`;
        ``"skip"`` retries, then records a
        :class:`~repro.exec.fault.FailureRecord` and leaves ``None``
        in that cell of the result.
    audit:
        An :class:`~repro.guard.audit.AuditPolicy` or a bare fraction
        in ``[0, 1]``; ``None`` audits nothing.  A seeded subset of
        restored cells (a pure function of the policy seed and the
        task key) is re-simulated on the normal path and compared
        bit-exact; a divergence raises
        :class:`~repro.guard.errors.AuditMismatch` carrying both
        payloads.  Counters land under ``audit.*``.
    dist:
        A :class:`repro.dist.DistOptions` or a spool directory: pending
        cells are published as sealed tickets, claimed by ``repro
        worker`` processes and harvested back through the same store
        and retry bookkeeping as every other path.  A broker no worker
        attaches to degrades to the local path; results are identical
        either way.  See :mod:`repro.dist`.
    max_worker_deaths:
        Unexpected worker deaths tolerated before the pool is declared
        unhealthy and the remaining cells run in-process; ``None``
        resolves to ``2 * jobs + 2``.  Timeout kills do not count.
    version:
        Simulator version tag mixed into task keys.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    journal: Union[Journal, str, os.PathLike, None] = None
    retry: Optional[RetryPolicy] = None
    timeout: Optional[float] = None
    on_error: str = "raise"
    audit: Union[AuditPolicy, float, None] = None
    dist: Union["DistOptions", str, os.PathLike, None] = None
    max_worker_deaths: Optional[int] = None
    version: str = SIMULATOR_VERSION

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(
                f"timeout must be > 0 seconds, got {self.timeout}"
            )
        resolve = partial(object.__setattr__, self)
        if self.journal is not None \
                and not isinstance(self.journal, Journal):
            resolve("journal", Journal(self.journal))
        if not isinstance(self.audit, AuditPolicy):
            resolve("audit", AuditPolicy(float(self.audit or 0.0)))
        if self.dist is not None:
            # Imported only here: single-host grids never load the
            # distributed runtime.
            from repro.dist.options import DistOptions

            if not isinstance(self.dist, DistOptions):
                resolve("dist", DistOptions(spool=self.dist))
        if self.retry is None:
            resolve("retry", NO_RETRY_POLICY if self.on_error == "raise"
                    else DEFAULT_RETRY_POLICY)
        if self.max_worker_deaths is None:
            resolve("max_worker_deaths", 2 * self.jobs + 2)

    @property
    def fail_fast(self) -> bool:
        """True when a failing cell re-raises its own exception: the
        ``on_error="raise"`` default, which no explicit policy (not
        even a one-attempt one) selects."""
        return self.on_error == "raise" and self.retry is NO_RETRY_POLICY


# ---------------------------------------------------------------------------
# run_grid
# ---------------------------------------------------------------------------

def run_grid(
    tasks: Iterable[SimTask],
    *,
    progress: Optional[Callable[[int, int], None]] = None,
    telemetry=None,
    **options,
) -> GridResult:
    """Simulate every task; return stats in task order.

    ``options`` are the fields of :class:`ExecOptions`.  The two
    observers stay outside it, since neither changes a result:

    progress:
        ``(done, total)`` callback, invoked once per finished task
        (cache/journal hits and permanently skipped cells included)
        from the calling process.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Its tracer receives
        the grid/preload phase spans, one ``run`` span per simulated
        attempt, async ``queue`` spans for pool wait time, and instant
        events for restores, retries, timeouts and worker deaths; its
        metrics registry receives the ``tasks.*`` / ``cache.*`` /
        ``workers.*`` counters, the ``queue.depth`` gauge, and the
        ``task.seconds`` histogram (plus opt-in ``sim.*`` counters
        aggregated from every completed cell, emitted together with
        ``tasks.completed`` as one registry call per cell).  On the
        pool path a cell's ``queue`` span ends, and its ``run`` span
        and ``timeout`` deadline start, when it becomes its worker's
        running cell — not when it is sent ahead.  All hooks run on
        the same guarded path as ``progress``; see :class:`_Observer`.
    """
    with _Resolved(options) as resolved:
        return _Grid(list(tasks), resolved,
                     _Observer(progress, telemetry)).run()


class _Resolved:
    """``with _Resolved(options) as resolved:`` — one
    :class:`ExecOptions` for every grid of one call (a study forwards
    ``**vars(resolved)``; resolved fields rebuild idempotently).
    Whoever turns a journal path into a :class:`Journal` closes it: on
    exit, but never a ``Journal`` the caller passed in.
    """

    def __init__(self, options):
        self.options = ExecOptions(**options)
        self.opened = self.options.journal is not options.get("journal")

    def __enter__(self) -> ExecOptions:
        return self.options

    def __exit__(self, *exc_info) -> None:
        if self.opened:
            self.options.journal.close()


class _Grid:
    """One :func:`run_grid` call: its state and the bookkeeping every
    dispatch path shares.

    The preload restores what the journal and cache hold; then each
    dispatch path — distributed, pool, serial, in that order — takes
    ``(grid, pending)`` and returns the cells it left over.  A path
    hands a finished cell to :meth:`store` and a failed attempt to
    :meth:`failed`, which applies the retry policy once for all of
    them.
    """

    def __init__(self, tasks: List[SimTask], options: ExecOptions,
                 obs: _Observer):
        self.tasks = tasks
        self.options = options
        self.obs = obs
        total = len(tasks)
        self.results: List[Optional[CoreStats]] = [None] * total
        self.failures: List[FailureRecord] = []
        self.keys: List[Optional[str]] = [None] * total
        self.resolved: Set[int] = set()
        self.error_counts: Dict[int, int] = {}
        self.death_counts: Dict[int, int] = {}
        #: index -> (restored stats, source) for cells the audit
        #: selected; the re-executed result is compared against this
        #: in :meth:`store`.
        self.audit_expect: Dict[int, Tuple[CoreStats, str]] = {}
        self.done = 0

    def run(self) -> GridResult:
        options, obs = self.options, self.obs
        cache = options.cache
        total = len(self.tasks)
        cache_before = cache.counters() if cache is not None else None
        grid_span = obs.begin("grid", "grid", tasks=total,
                              jobs=options.jobs)
        obs.count("grid.tasks", total)
        if options.audit.fraction > 0:
            # Register the audit instruments up front so snapshots have
            # a stable shape even when no cell is selected or violated.
            obs.count("audit.selected", 0)
            obs.count("audit.passed", 0)
            obs.count("audit.violations", 0)
        pending = _dispatch_order(self.tasks, self._preload())
        #: How the grid ended, when it raised: its span says so.
        ending: Dict[str, str] = {}
        try:
            if options.dist is not None and pending:
                # Imported lazily: the distributed runtime is optional
                # machinery and single-host grids must not pay for it.
                from repro.dist.broker import run_dist
                pending = run_dist(self, pending)
            if options.jobs > 1 and len(pending) > 1 \
                    and _fork_available():
                pending = _run_pool(self, pending)
            _run_serial(self, pending)
        except KeyboardInterrupt:
            ending = {"outcome": "interrupted"}
            raise
        except Exception as exc:
            ending = {"outcome": "error", "error": type(exc).__name__}
            raise
        finally:
            # Surface the cache's own counters as this grid's deltas,
            # so a registry shared across grids accumulates true totals.
            if cache is not None and obs.metrics is not None:
                for name, value in cache.counters().items():
                    obs.count(f"cache.{name}",
                              value - cache_before[name])
            obs.finish(grid_span, completed=self.done,
                       failures=len(self.failures), **ending)
        return GridResult(self.results, self.failures)

    def key(self, i: int) -> str:
        """Task ``i``'s content key, computed once."""
        if self.keys[i] is None:
            self.keys[i] = task_key(self.tasks[i],
                                    version=self.options.version)
        return self.keys[i]

    def _preload(self) -> List[int]:
        """Restore from the journal (the resume source), then the
        cache; return the cells still to run."""
        obs = self.obs
        cache, journal = self.options.cache, self.options.journal
        pending: List[int] = []
        preload_span = obs.begin(
            "preload", "phase",
            probing=("journal+cache" if journal is not None
                     and cache is not None
                     else "journal" if journal is not None
                     else "cache" if cache is not None else "none"),
        )
        for i in range(len(self.tasks)):
            if cache is None and journal is None:
                pending.append(i)
                continue
            key = self.key(i)
            hit = None
            source = ""
            if journal is not None:
                hit = journal.get(key)
                if hit is not None:
                    source = "journal"
                    obs.count("tasks.restored.journal")
                    obs.event("restore", "cache", index=i,
                              source="journal")
            if hit is None and cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    source = "cache"
                    obs.count("tasks.restored.cache")
                    obs.event("restore", "cache", index=i,
                              source="cache")
            if hit is None:
                pending.append(i)
            elif self.options.audit.selects(key):
                # Keep the restored value aside and re-execute the
                # cell on the normal path; ``store`` compares.
                self.audit_expect[i] = (hit, source)
                obs.count("audit.selected")
                obs.event("audit-selected", "guard", index=i,
                          source=source)
                pending.append(i)
            else:
                self.store(i, hit)
        obs.finish(preload_span,
                   restored=len(self.tasks) - len(pending),
                   audited=len(self.audit_expect),
                   pending=len(pending))
        return pending

    def _advance(self) -> None:
        self.done += 1
        self.obs.progress(self.done, len(self.tasks))

    def store(self, i: int, stats: CoreStats,
              simulated: bool = False) -> None:
        """A completed cell: result list, cache, journal, progress."""
        obs, cache = self.obs, self.options.cache
        expected = self.audit_expect.pop(i, None)
        if expected is not None:
            restored, source = expected
            try:
                verify_restored(self.keys[i], i, source, restored, stats)
            except AuditMismatch:
                obs.count("audit.violations")
                obs.event("audit-violation", "guard", index=i,
                          source=source)
                raise
            obs.count("audit.passed")
            obs.event("audit-passed", "guard", index=i, source=source)
        self.results[i] = stats
        self.resolved.add(i)
        if cache is not None and cache.put_failures == 0:
            try:
                cache.put(self.keys[i], stats)
            except Exception as exc:
                # The counter doubles as the "writes are down" switch:
                # one failure stops further attempts on this cache.
                cache.put_failures += 1
                warnings.warn(
                    "result cache writes failing "
                    f"({type(exc).__name__}: {exc}); continuing without "
                    "persisting results",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if self.options.journal is not None:
            self.options.journal.record(self.keys[i], stats)
        obs.completed(stats, simulated)
        self._advance()

    def attempt(self, i: int) -> int:
        """Attempts task ``i`` has spent so far: its attempt number."""
        return self.error_counts.get(i, 0) + self.death_counts.get(i, 0)

    def _give_up(self, i: int, kind: str, error_type: str,
                 message: str) -> None:
        """All attempts spent: record (skip) or raise (retry/raise)."""
        record = FailureRecord(
            index=i, kind=kind, error_type=error_type,
            message=message, attempts=self.attempt(i),
        )
        self.obs.count("tasks.failed")
        self.obs.event("task-failed", "fault", index=i, kind=kind,
                       error=error_type)
        if self.options.on_error != "skip":
            raise GridError(record)
        self.failures.append(record)
        self.resolved.add(i)
        self._advance()

    def failed(self, i: int, kind: str, error_type: str,
               message: str) -> bool:
        """Register one failed attempt; True means try again."""
        obs = self.obs
        if kind == "timeout":
            obs.count("tasks.timeouts")
        if kind == "worker-died":
            deaths = self.death_counts[i] = \
                self.death_counts.get(i, 0) + 1
            if deaths <= _MAX_RESUBMITS:
                obs.count("tasks.resubmitted")
                obs.event("resubmit", "fault", index=i,
                          attempt=self.attempt(i))
                return True
        else:
            errors = self.error_counts[i] = \
                self.error_counts.get(i, 0) + 1
            if errors < self.options.retry.max_attempts:
                obs.count("tasks.retried")
                obs.event("retry", "fault", index=i, kind=kind,
                          attempt=self.attempt(i))
                self.options.retry.pause(errors, token=i)
                return True
        self._give_up(i, kind, error_type, message)
        return False


def _dispatch_order(tasks: List[SimTask], pending: List[int]) -> List[int]:
    """``pending`` grouped by trace: traces in the order of their first
    pending cell, each trace's cells in index order.

    The compiled kernel shares functional warm-up among the cells of
    one trace that run one after another in a process (see
    :mod:`repro.cpu.native`), so every dispatch path takes them so.
    Results stay indexed by cell; only the order of journal lines and
    events follows dispatch.
    """
    by_trace: Dict[int, List[int]] = {}
    for i in pending:
        by_trace.setdefault(id(tasks[i].trace), []).append(i)
    return [i for cells in by_trace.values() for i in cells]


def _run_serial(grid: _Grid, pending: List[int]) -> List[int]:
    """Run ``pending`` in-process, in order; leaves nothing over."""
    obs = grid.obs
    for i in pending:
        if i in grid.resolved:
            continue
        while True:
            attempt = grid.attempt(i)
            span = obs.begin("run", "task", index=i, attempt=attempt)
            started = time.monotonic()
            try:
                stats = _execute_cell(grid.tasks[i], i, attempt)
            except KeyboardInterrupt:
                # Never a task failure: completed cells are already
                # journaled, so the caller can resume.
                obs.finish(span, outcome="interrupted")
                raise
            except Exception as exc:
                obs.finish(span, outcome="error",
                           error=type(exc).__name__)
                if grid.options.fail_fast:
                    raise
                try:
                    again = grid.failed(i, "error", type(exc).__name__,
                                        str(exc))
                except GridError as failure:
                    raise failure from exc
                if again:
                    continue
                break
            obs.finish(span, outcome="ok")
            obs.observe("task.seconds", time.monotonic() - started)
            grid.store(i, stats, simulated=True)
            break
    return []


def _run_pool(grid: _Grid, pending: List[int]) -> List[int]:
    """Supervise a fork pool over ``pending``; returns leftovers.

    The return value is normally empty; when the pool is declared
    unhealthy (too many unexpected worker deaths, or workers cannot be
    spawned) it is the list of still-unfinished task indices, which
    the caller runs in-process.

    Dispatch is **send-ahead**: besides the cell it runs, each worker
    holds one more in its pipe, so it moves on the moment it returns a
    result.  On a result the supervisor first promotes the worker's
    queued cell and sends it the next one, and only then stores the
    result (cache, journal, telemetry).  The last ``jobs`` cells are
    never sent ahead, so the tail stays balanced across workers.  A
    queued cell costs nothing if its worker dies or is killed for a
    timeout: it goes back to the queue without an attempt charged.

    Telemetry (all parent-side, via ``obs``): each pending task gets
    an async ``queue`` span from enqueue until it becomes its worker's
    current cell, then a ``run`` span on that worker's lane until its
    result arrives; the per-task deadline starts with the ``run``
    span, never while the cell waits behind another.  Timeouts, deaths
    and degradation become instant events.  Span identities derive
    from (task index, attempt), so traces from identical runs match
    structurally no matter which worker drew which task.
    """
    # Imported here, like the pool itself: in-process grids never
    # load the socket machinery behind it.
    from multiprocessing.connection import wait as wait_for

    obs, options = grid.obs, grid.options
    context = multiprocessing.get_context("fork")
    todo = deque(pending)
    workers: Dict[int, _Worker] = {}
    next_id = 0
    deaths = 0

    #: Open telemetry spans keyed by task index (at most one queue
    #: wait and one in-flight run per task at any moment).
    queue_spans: Dict[int, object] = {}
    run_spans: Dict[int, object] = {}
    run_started: Dict[int, float] = {}

    def _enqueue_span(i: int) -> None:
        queue_spans[i] = obs.begin_async(
            "queue", "task", index=i, attempt=grid.attempt(i),
        )

    for i in todo:
        _enqueue_span(i)

    def _held() -> List[int]:
        """Cells out with workers: running, then sent ahead."""
        held = [w.current[0] for w in workers.values()
                if w.current is not None]
        held.extend(w.queued[0] for w in workers.values()
                    if w.queued is not None)
        return held

    def _remaining() -> List[int]:
        left = [i for i in todo if i not in grid.resolved]
        for i in _held():
            if i not in grid.resolved and i not in left:
                left.append(i)
        return left

    def _send(worker: _Worker) -> Optional[Tuple[int, int]]:
        """Send ``worker`` the next unresolved cell waiting in
        ``todo``; None if there is none or the worker is gone."""
        while todo:
            i = todo.popleft()
            if i in grid.resolved:
                obs.finish_open(queue_spans.pop(i, None),
                                outcome="superseded")
                continue
            attempt = grid.attempt(i)
            try:
                worker.send(i, attempt)
            except OSError:
                # The worker is gone; the health check will see it.
                todo.appendleft(i)
                return None
            return i, attempt
        return None

    def _start(wid: int, worker: _Worker, i: int, attempt: int) -> None:
        """Cell ``i`` becomes the one ``worker`` runs: its queue span
        ends, its run span and deadline begin."""
        now = time.monotonic()
        worker.current = (i, now + options.timeout
                          if options.timeout is not None else None)
        obs.finish_open(queue_spans.pop(i, None), outcome="dispatched")
        run_spans[i] = obs.begin(
            "run", "task", track=wid + 1, index=i, attempt=attempt,
        )
        run_started[i] = now
        obs.gauge("queue.depth", len(todo))

    def _feed(wid: int, worker: _Worker) -> None:
        """Give an idle worker a cell, then one ahead while more than
        ``jobs`` cells wait."""
        if worker.current is None:
            sent = _send(worker)
            if sent is None:
                return
            _start(wid, worker, *sent)
        if worker.queued is None and len(todo) > options.jobs:
            worker.queued = _send(worker)

    def _requeue(worker: _Worker) -> None:
        """Return a lost worker's sent-ahead cell, uncharged."""
        if worker.queued is not None:
            todo.appendleft(worker.queued[0])
            worker.queued = None

    def _receive(wid: int, worker: _Worker, message, alive: bool) -> None:
        i, ok, payload = message
        if ok:
            obs.finish_open(run_spans.pop(i, None), outcome="ok")
        else:
            obs.finish_open(run_spans.pop(i, None), outcome="error",
                            error=payload[0])
        started = run_started.pop(i, None)
        if worker.current is not None and worker.current[0] == i:
            # The worker has moved on to its queued cell (a worker
            # that died after this result died running that one).
            worker.current = None
            if worker.queued is not None:
                _start(wid, worker, *worker.queued)
                worker.queued = None
            if alive:
                _feed(wid, worker)
        if i in grid.resolved:
            return
        if ok:
            if started is not None:
                obs.observe("task.seconds", time.monotonic() - started)
            grid.store(i, payload, simulated=True)
        else:
            error_type, message_text = payload
            if grid.failed(i, "error", error_type, message_text):
                todo.append(i)
                _enqueue_span(i)

    def _drain(wid: int, worker: _Worker) -> None:
        """Handle whatever a dead worker delivered before it died."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            _receive(wid, worker, message, alive=False)

    def _check_health() -> None:
        nonlocal deaths
        now = time.monotonic()
        for wid, worker in list(workers.items()):
            current = worker.current
            if current is not None:
                i, deadline = current
                if deadline is not None and now > deadline \
                        and not worker.conn.poll():
                    # Hung task: kill the worker deliberately
                    # (doesn't count against pool health).
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
                    del workers[wid]
                    _requeue(worker)
                    obs.finish_open(run_spans.pop(i, None),
                                    outcome="timeout")
                    run_started.pop(i, None)
                    if i not in grid.resolved and grid.failed(
                        i, "timeout", "",
                        f"exceeded {options.timeout:.3g}s wall-clock "
                        "budget",
                    ):
                        todo.append(i)
                        _enqueue_span(i)
                    continue
            if not worker.process.is_alive():
                # Unexpected death (kill fault, OOM, segfault).
                worker.process.join(timeout=1.0)
                _drain(wid, worker)
                del workers[wid]
                _requeue(worker)
                deaths += 1
                code = worker.process.exitcode
                obs.count("workers.deaths")
                obs.event("worker-death", "fault", code=code)
                if worker.current is not None:
                    i = worker.current[0]
                    obs.finish_open(run_spans.pop(i, None),
                                    outcome="worker-died")
                    run_started.pop(i, None)
                    if i not in grid.resolved and grid.failed(
                        i, "worker-died",
                        "", f"worker exited with code {code} "
                            f"while running task {i}",
                    ):
                        todo.append(i)
                        _enqueue_span(i)
                if deaths > options.max_worker_deaths:
                    warnings.warn(
                        f"worker pool unhealthy ({deaths} worker "
                        "deaths); running remaining cells "
                        "in-process",
                        RuntimeWarning, stacklevel=4,
                    )
                    obs.count("pool.degraded")
                    obs.event("pool-degraded", "fault",
                              deaths=deaths)
                    raise _PoolUnhealthy

    next_check = time.monotonic() + _POLL_SECONDS
    try:
        while True:
            held = _held()
            if not todo and not held:
                break
            # Keep the pool sized to the work left; replace dead
            # workers here too (spawn failure => degrade).
            want = min(options.jobs, len(todo) + len(held))
            while len(workers) < want:
                try:
                    workers[next_id] = _Worker(context, grid.tasks)
                except OSError as exc:
                    warnings.warn(
                        f"cannot spawn simulation worker ({exc}); "
                        "running remaining cells in-process",
                        RuntimeWarning, stacklevel=3,
                    )
                    obs.count("pool.degraded")
                    obs.event("pool-degraded", "fault",
                              reason="spawn-failure")
                    raise _PoolUnhealthy from exc
                obs.count("workers.spawned")
                next_id += 1

            for wid, worker in workers.items():
                _feed(wid, worker)
            if not todo and not _held():
                break

            # Wait briefly for results; check deadlines and liveness
            # when none came, or at least once per poll period.
            owners = {worker.conn: wid for wid, worker in workers.items()}
            ready = wait_for(list(owners), timeout=_POLL_SECONDS)
            lost = False
            for conn in ready:
                wid = owners[conn]
                worker = workers.get(wid)
                if worker is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    lost = True
                    continue
                _receive(wid, worker, message, alive=True)
            now = time.monotonic()
            if not ready or lost or now >= next_check:
                next_check = now + _POLL_SECONDS
                _check_health()
    except _PoolUnhealthy:
        return _remaining()
    finally:
        # Close any spans left open by degradation or interruption;
        # a healthy pool has already popped every entry.
        for span in queue_spans.values():
            obs.finish_open(span, outcome="abandoned")
        for span in run_spans.values():
            obs.finish_open(span, outcome="abandoned")
        for worker in workers.values():
            worker.stop()
    return []
