"""Tests for the experiment broker (repro.dist.broker) via run_grid.

The broker is exercised through its only public entry point,
``run_grid(dist=...)``, with workers running as background threads
over the same spool — processes and threads are indistinguishable to
a protocol whose whole state lives in files.  Kill-style crashes need
real processes and live in the chaos acceptance test; here we cover
the coordination logic: completion, bit-identical results, dedup,
worker-error retries, restart adoption, and graceful degradation.
"""

import threading

import pytest

from repro.core import PBExperiment
from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.dist import DistOptions, coerce_dist_options
from repro.dist.spool import Spool
from repro.dist.worker import DistWorker
from repro.exec import (
    Journal,
    ResultCache,
    RetryPolicy,
    grid_tasks,
    run_grid,
    task_key,
)
from repro.guard import faults
from repro.guard.faults import Fault, FaultInjector
from repro.workloads import benchmark_trace


@pytest.fixture(scope="module")
def traces():
    return {
        "gzip": benchmark_trace("gzip", 600),
        "mcf": benchmark_trace("mcf", 600),
    }


@pytest.fixture(scope="module")
def tasks(traces):
    configs = [
        MachineConfig(),
        MachineConfig().evolve(rob_entries=64, lsq_entries=32),
        MachineConfig().evolve(l2_latency=20),
    ]
    return grid_tasks(configs, traces)


@pytest.fixture(scope="module")
def clean(tasks):
    return [s.cycles for s in run_grid(tasks)]


def cycles(grid):
    return [s.cycles if s is not None else None for s in grid]


def dist_options(tmp_path, **overrides):
    defaults = dict(spool=tmp_path / "spool", poll=0.01,
                    heartbeat_grace=1.0, attach_grace=30.0)
    defaults.update(overrides)
    return DistOptions(**defaults)


def attach_workers(options, count=1, **kwargs):
    """Background workers over the broker's spool, as threads."""
    kwargs.setdefault("poll", 0.01)
    kwargs.setdefault("heartbeat_interval", 0.05)
    threads = []
    for n in range(count):
        worker = DistWorker(options.spool, worker_id=f"w{n}", **kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        threads.append(thread)
    return threads


class TestOptions:
    def test_coerce_accepts_path(self, tmp_path):
        options = coerce_dist_options(tmp_path / "spool")
        assert options.spool == tmp_path / "spool"

    def test_coerce_passes_options_through(self, tmp_path):
        options = dist_options(tmp_path)
        assert coerce_dist_options(options) is options

    def test_nonpositive_knobs_rejected(self, tmp_path):
        for name in ("lease_ttl", "heartbeat_grace", "attach_grace",
                     "poll"):
            with pytest.raises(ValueError, match=name):
                DistOptions(spool=tmp_path, **{name: 0.0})


class TestDistributedRun:
    def test_bit_identical_to_local(self, tmp_path, tasks, clean):
        options = dist_options(tmp_path)
        threads = attach_workers(options)
        grid = run_grid(tasks, dist=options)
        assert cycles(grid) == clean
        for thread in threads:
            thread.join(timeout=10.0)
        # The broker drained its workers and left nothing in flight.
        spool = Spool(options.spool)
        assert spool.draining()
        assert spool.pending_keys() == []
        assert spool.leased_keys() == []

    def test_duplicate_cells_share_one_ticket(self, tmp_path, traces):
        configs = [MachineConfig(), MachineConfig()]  # same cell twice
        duplicated = grid_tasks(configs, traces)
        options = dist_options(tmp_path)
        threads = attach_workers(options)
        grid = run_grid(tasks=duplicated, dist=options)
        for thread in threads:
            thread.join(timeout=10.0)
        half = len(duplicated) // 2
        assert cycles(grid)[:half] == cycles(grid)[half:]

    def test_worker_error_is_retried(self, tmp_path, tasks, clean):
        options = dist_options(tmp_path)
        injector = FaultInjector([Fault("raise", 2, 1)])
        with faults.injected(injector):
            threads = attach_workers(options)
            grid = run_grid(
                tasks, dist=options, on_error="retry",
                retry=RetryPolicy(max_attempts=3, sleep=lambda s: None),
            )
        assert cycles(grid) == clean
        for thread in threads:
            thread.join(timeout=10.0)

    def test_cache_and_journal_flow_through(self, tmp_path, tasks,
                                            clean):
        options = dist_options(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "grid.journal"
        threads = attach_workers(options)
        with Journal(journal_path) as journal:
            grid = run_grid(tasks, dist=options, cache=cache,
                            journal=journal)
        assert cycles(grid) == clean
        for thread in threads:
            thread.join(timeout=10.0)
        # Every harvested cell went through the ordinary store path.
        assert len(Journal(journal_path)) == len(tasks)
        for task in tasks:
            assert task_key(task) in cache

    def test_restart_adopts_sealed_results(self, tmp_path, tasks,
                                           clean):
        # A broker died after one worker result sealed: the restarted
        # broker must harvest that result instead of re-running it.
        options = dist_options(tmp_path)
        spool = Spool(options.spool, version=SIMULATOR_VERSION)
        spool.ensure()
        from repro.exec.engine import _execute
        key = task_key(tasks[0], version=SIMULATOR_VERSION)
        spool.write_result(key, index=0, attempt=0, worker="w-dead",
                           ok=True, stats=_execute(tasks[0]))
        sentinel = spool.result_path(key).read_bytes()
        threads = attach_workers(options)
        grid = run_grid(tasks, dist=options)
        assert cycles(grid) == clean
        for thread in threads:
            thread.join(timeout=10.0)
        # The adopted cell was never republished: no worker overwrote
        # the dead broker's sealed result before it was harvested.
        assert not spool.result_path(key).exists() \
            or spool.result_path(key).read_bytes() == sentinel


class TestDegradation:
    def test_no_workers_degrades_to_local(self, tmp_path, tasks,
                                          clean):
        options = dist_options(tmp_path, attach_grace=0.2)
        with pytest.warns(RuntimeWarning,
                          match="no distributed worker"):
            grid = run_grid(tasks, dist=options)
        assert cycles(grid) == clean
        spool = Spool(options.spool)
        assert spool.pending_keys() == []  # tickets were withdrawn
        assert spool.draining()

    def test_empty_grid_never_opens_spool(self, tmp_path):
        options = dist_options(tmp_path, attach_grace=0.2)
        assert list(run_grid([], dist=options)) == []
        assert not options.spool.exists()


class TestExperimentIntegration:
    def test_pb_experiment_runs_distributed(self, tmp_path, traces):
        subset = ["Reorder Buffer Entries", "LSQ Entries", "Int ALUs"]
        experiment = PBExperiment(traces, parameter_names=subset)
        local = experiment.run()
        options = dist_options(tmp_path)
        threads = attach_workers(options, count=2)
        distributed = experiment.run(dist=options)
        for thread in threads:
            thread.join(timeout=30.0)
        assert distributed.responses == local.responses
        assert distributed.ranks() == local.ranks()
