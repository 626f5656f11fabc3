"""Parallel, cached, fault-tolerant execution of simulation grids.

Every experiment in this repository — the 88-run Plackett-Burman
screen, its foldover and replicated variants, parameter sweeps,
iterative refinement, enhancement before/after studies — reduces to
the same primitive: simulate a grid of independent (configuration,
trace) pairs and collect one :class:`~repro.cpu.stats.CoreStats` per
cell.  :func:`run_grid` is that primitive, shared by all of them.

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
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Set, Tuple, Union,
)

from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.cpu.pipeline import simulate
from repro.cpu.stats import CoreStats
from repro.guard import faults
from repro.guard.audit import AuditPolicy, coerce_policy, verify_restored
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

__all__ = ["SimTask", "run_grid", "grid_tasks"]


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
# run_grid
# ---------------------------------------------------------------------------

def run_grid(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    version: str = SIMULATOR_VERSION,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    on_error: str = "raise",
    journal: Optional[Union[Journal, str, os.PathLike]] = None,
    max_worker_deaths: Optional[int] = None,
    telemetry=None,
    audit: Union[AuditPolicy, float, None] = None,
    dist=None,
) -> GridResult:
    """Simulate every task; return stats in task order.

    Parameters
    ----------
    tasks:
        The grid cells to run (order defines result order).
    jobs:
        Worker processes.  ``1`` (the default) runs in-process; higher
        values fan pending tasks out over a supervised fork pool.  On
        platforms without ``fork`` the engine silently falls back to
        in-process execution rather than paying spawn's re-import and
        task-pickling costs.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely,
        misses are computed and written back.  Cache *write* failures
        (disk full, read-only directory) are reported once as a
        :class:`RuntimeWarning` and never abort the grid.
    progress:
        ``(done, total)`` callback, invoked once per finished task
        (cache/journal hits and permanently skipped cells included)
        from the calling process.
    version:
        Simulator version tag mixed into cache keys; defaults to
        :data:`~repro.cpu.SIMULATOR_VERSION`.
    retry:
        :class:`RetryPolicy` for failing cells.  ``None`` selects no
        retries under ``on_error="raise"`` and the default policy (3
        attempts, no backoff) under ``"retry"``/``"skip"``.
    timeout:
        Per-task wall-clock budget in seconds, enforced on the pool
        path (an in-process task cannot be preempted): a task over
        budget has its worker killed and counts as one failed attempt
        of kind ``"timeout"``.
    on_error:
        ``"raise"`` (default) propagates a cell's failure immediately;
        ``"retry"`` retries per policy and raises
        :class:`~repro.exec.fault.GridError` on exhaustion; ``"skip"``
        retries, then records a
        :class:`~repro.exec.fault.FailureRecord` and carries on,
        leaving ``None`` in that cell of the result.
    journal:
        A :class:`~repro.exec.journal.Journal` (or a path to one).
        Completed cells present in the journal are restored without
        simulation; every newly completed cell is appended, so an
        interrupted run resumes where it stopped.
    max_worker_deaths:
        Unexpected worker deaths tolerated before the pool is declared
        unhealthy and the remaining cells run in-process (default
        ``2 * jobs + 2``).  Deliberate timeout kills do not count.
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
    audit:
        Sampled re-execution audit of cache/journal hits: an
        :class:`~repro.guard.audit.AuditPolicy` or a bare fraction in
        ``[0, 1]``.  A deterministic, seeded subset of restored cells
        (selection is a pure function of the policy seed and the task
        key) is re-simulated in-process and compared bit-exact against
        the restored stats; any divergence raises
        :class:`~repro.guard.errors.AuditMismatch` carrying both
        payloads — a stale or tampered store must stop the run.
        Audited cells take the normal (possibly parallel) execution
        path, so a clean audit changes nothing but wall time; counters
        land under ``audit.*``.
    dist:
        A :class:`repro.dist.DistOptions` (or a spool directory path)
        selecting the distributed execution path: pending cells are
        published as sealed tickets into the shared spool, claimed by
        independent ``repro worker`` processes under atomic-rename
        leases, and harvested back through the same ``_store`` /
        retry machinery as every other path — so caching, journaling,
        auditing, telemetry and failure semantics are unchanged.  When
        no worker ever attaches the broker degrades to the local path
        (pool or in-process per ``jobs``), and any cells left behind
        by a degrading broker are finished locally; results stay
        bit-identical either way.  See :mod:`repro.dist`.
    """
    tasks = list(tasks)
    total = len(tasks)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    if retry is not None:
        policy = retry
    elif on_error in ("retry", "skip"):
        policy = DEFAULT_RETRY_POLICY
    else:
        policy = NO_RETRY_POLICY
    fail_fast = on_error == "raise" and retry is None
    if journal is not None and not isinstance(journal, Journal):
        journal = Journal(journal)
    if max_worker_deaths is None:
        max_worker_deaths = 2 * jobs + 2

    audit_policy = coerce_policy(audit)

    results: List[Optional[CoreStats]] = [None] * total
    failures: List[FailureRecord] = []
    keys: List[Optional[str]] = [None] * total
    state = {"done": 0}
    error_counts: Dict[int, int] = {}
    death_counts: Dict[int, int] = {}
    resolved: Set[int] = set()
    #: index -> (restored stats, source) for cells the audit selected;
    #: the re-executed result is compared against this in ``_store``.
    audit_expect: Dict[int, Tuple[CoreStats, str]] = {}

    obs = _Observer(progress, telemetry)
    cache_before = cache.counters() if cache is not None else None
    grid_span = obs.begin("grid", "grid", tasks=total, jobs=jobs)
    obs.count("grid.tasks", total)
    if audit_policy.fraction > 0:
        # Register the audit instruments up front so snapshots have a
        # stable shape even when no cell is selected or violated.
        obs.count("audit.selected", 0)
        obs.count("audit.passed", 0)
        obs.count("audit.violations", 0)

    def _advance() -> None:
        state["done"] += 1
        obs.progress(state["done"], total)

    def _store(i: int, stats: CoreStats, simulated: bool = False) -> None:
        """A completed cell: result list, cache, journal, progress."""
        expected = audit_expect.pop(i, None)
        if expected is not None:
            restored, source = expected
            try:
                verify_restored(keys[i], i, source, restored, stats)
            except AuditMismatch:
                obs.count("audit.violations")
                obs.event("audit-violation", "guard", index=i,
                          source=source)
                raise
            obs.count("audit.passed")
            obs.event("audit-passed", "guard", index=i, source=source)
        results[i] = stats
        resolved.add(i)
        if cache is not None and cache.put_failures == 0:
            try:
                cache.put(keys[i], stats)
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
        if journal is not None:
            journal.record(keys[i], stats)
        obs.completed(stats, simulated)
        _advance()

    def _attempt_number(i: int) -> int:
        return error_counts.get(i, 0) + death_counts.get(i, 0)

    def _give_up(i: int, kind: str, error_type: str,
                 message: str) -> None:
        """All attempts spent: record (skip) or raise (retry/raise)."""
        record = FailureRecord(
            index=i, kind=kind, error_type=error_type,
            message=message, attempts=_attempt_number(i),
        )
        obs.count("tasks.failed")
        obs.event("task-failed", "fault", index=i, kind=kind,
                  error=error_type)
        if on_error == "skip":
            failures.append(record)
            resolved.add(i)
            _advance()
        else:
            raise GridError(record)

    def _task_failed(i: int, kind: str, error_type: str,
                     message: str) -> bool:
        """Register one failed attempt; True means try again."""
        if kind == "timeout":
            obs.count("tasks.timeouts")
        if kind == "worker-died":
            death_counts[i] = death_counts.get(i, 0) + 1
            if death_counts[i] <= _MAX_RESUBMITS:
                obs.count("tasks.resubmitted")
                obs.event("resubmit", "fault", index=i,
                          attempt=_attempt_number(i))
                return True
        else:
            error_counts[i] = error_counts.get(i, 0) + 1
            if error_counts[i] < policy.max_attempts:
                obs.count("tasks.retried")
                obs.event("retry", "fault", index=i, kind=kind,
                          attempt=_attempt_number(i))
                policy.pause(error_counts[i], token=i)
                return True
        _give_up(i, kind, error_type, message)
        return False

    # -- preload: journal first (the resume source), then cache -----
    pending: List[int] = []
    preload_span = obs.begin(
        "preload", "phase",
        probing=("journal+cache" if journal is not None
                 and cache is not None
                 else "journal" if journal is not None
                 else "cache" if cache is not None else "none"),
    )
    for i, task in enumerate(tasks):
        if cache is not None or journal is not None:
            keys[i] = task_key(task, version=version)
        hit = None
        source = ""
        if journal is not None:
            hit = journal.get(keys[i])
            if hit is not None:
                source = "journal"
                obs.count("tasks.restored.journal")
                obs.event("restore", "cache", index=i,
                          source="journal")
        if hit is None and cache is not None:
            hit = cache.get(keys[i])
            if hit is not None:
                source = "cache"
                obs.count("tasks.restored.cache")
                obs.event("restore", "cache", index=i, source="cache")
        if hit is not None:
            if audit_policy.selects(keys[i]):
                # Keep the restored value aside and re-execute the
                # cell on the normal path; ``_store`` compares.
                audit_expect[i] = (hit, source)
                obs.count("audit.selected")
                obs.event("audit-selected", "guard", index=i,
                          source=source)
                pending.append(i)
                continue
            _store(i, hit)
            continue
        pending.append(i)
    obs.finish(preload_span,
               restored=total - len(pending),
               audited=len(audit_expect),
               pending=len(pending))

    def _run_serial(indices: Iterable[int]) -> None:
        for i in indices:
            if i in resolved:
                continue
            while True:
                attempt = _attempt_number(i)
                span = obs.begin("run", "task", index=i,
                                 attempt=attempt)
                started = time.monotonic()
                try:
                    stats = _execute_cell(tasks[i], i, attempt)
                except KeyboardInterrupt:
                    # Never a task failure: completed cells are already
                    # journaled, so the caller can resume.
                    obs.finish(span, outcome="interrupted")
                    raise
                except Exception as exc:
                    obs.finish(span, outcome="error",
                               error=type(exc).__name__)
                    if fail_fast:
                        raise
                    error_counts[i] = error_counts.get(i, 0) + 1
                    if error_counts[i] < policy.max_attempts:
                        obs.count("tasks.retried")
                        obs.event("retry", "fault", index=i,
                                  kind="error",
                                  attempt=_attempt_number(i))
                        policy.pause(error_counts[i], token=i)
                        continue
                    try:
                        _give_up(i, "error", type(exc).__name__, str(exc))
                    except GridError as failure:
                        raise failure from exc
                    break
                else:
                    obs.finish(span, outcome="ok")
                    obs.observe("task.seconds",
                                time.monotonic() - started)
                    _store(i, stats, simulated=True)
                    break

    try:
        if dist is not None and pending:
            # Imported lazily: the distributed runtime is optional
            # machinery and single-host grids must not pay for it.
            from repro.dist import coerce_dist_options
            from repro.dist.broker import run_dist
            for i in pending:
                if keys[i] is None:
                    keys[i] = task_key(tasks[i], version=version)
            pending = run_dist(
                tasks, pending,
                options=coerce_dist_options(dist),
                keys=keys, version=version,
                store=_store, task_failed=_task_failed,
                attempt_number=_attempt_number, resolved=resolved,
                obs=obs, policy=policy,
            )
        if jobs > 1 and len(pending) > 1 and _fork_available():
            remaining = _run_pool(
                tasks, pending,
                jobs=jobs, timeout=timeout,
                max_worker_deaths=max_worker_deaths,
                store=_store, task_failed=_task_failed,
                attempt_number=_attempt_number, resolved=resolved,
                obs=obs,
            )
            if remaining:
                _run_serial(remaining)
        else:
            _run_serial(pending)
    finally:
        # Surface the cache's own counters as this grid's deltas, so
        # a registry shared across grids accumulates true totals.
        if cache is not None and obs.metrics is not None:
            for name, value in cache.counters().items():
                obs.count(f"cache.{name}",
                          value - cache_before[name])
        obs.finish(grid_span, completed=state["done"],
                   failures=len(failures))
    return GridResult(results, failures)


def _run_pool(
    tasks: List[SimTask],
    pending: List[int],
    *,
    jobs: int,
    timeout: Optional[float],
    max_worker_deaths: int,
    store: Callable[..., None],
    task_failed: Callable[[int, str, str, str], bool],
    attempt_number: Callable[[int], int],
    resolved: Set[int],
    obs: _Observer,
) -> List[int]:
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
            "queue", "task", index=i, attempt=attempt_number(i),
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
        left = [i for i in todo if i not in resolved]
        for i in _held():
            if i not in resolved and i not in left:
                left.append(i)
        return left

    def _send(worker: _Worker) -> Optional[Tuple[int, int]]:
        """Send ``worker`` the next unresolved cell waiting in
        ``todo``; None if there is none or the worker is gone."""
        while todo:
            i = todo.popleft()
            if i in resolved:
                obs.finish_open(queue_spans.pop(i, None),
                                outcome="superseded")
                continue
            attempt = attempt_number(i)
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
        worker.current = (i, now + timeout if timeout else None)
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
        if worker.queued is None and len(todo) > jobs:
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
        if i in resolved:
            return
        if ok:
            if started is not None:
                obs.observe("task.seconds", time.monotonic() - started)
            store(i, payload, simulated=True)
        else:
            error_type, message_text = payload
            if task_failed(i, "error", error_type, message_text):
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
                    if i not in resolved and task_failed(
                        i, "timeout", "",
                        f"exceeded {timeout:.3g}s wall-clock budget",
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
                    if i not in resolved and task_failed(
                        i, "worker-died",
                        "", f"worker exited with code {code} "
                            f"while running task {i}",
                    ):
                        todo.append(i)
                        _enqueue_span(i)
                if deaths > max_worker_deaths:
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
            want = min(jobs, len(todo) + len(held))
            while len(workers) < want:
                try:
                    workers[next_id] = _Worker(context, tasks)
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
