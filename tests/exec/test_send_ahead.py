"""Send-ahead dispatch on the supervised pool (repro.exec.engine).

Each pool worker holds one cell beyond the one it runs.  These tests
pin down what that second cell must never change: a queued cell lost
with its worker is requeued without an attempt charged, its deadline
starts only when it becomes the running cell, pool degradation and
shutdown account for it, and the sealed results of a screen are the
same bytes at every ``jobs``.
"""

import multiprocessing
import signal
import time

import pytest

from repro.cli import main
from repro.cpu import MachineConfig
from repro.exec import engine, grid_tasks, run_grid
from repro.guard import faults
from repro.guard.faults import Fault, FaultInjector
from repro.obs import Telemetry
from repro.workloads import benchmark_trace

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork",
)


@pytest.fixture(scope="module")
def tasks():
    traces = {
        "gzip": benchmark_trace("gzip", 600),
        "mcf": benchmark_trace("mcf", 600),
    }
    configs = [
        MachineConfig(),
        MachineConfig().evolve(rob_entries=64, lsq_entries=32),
        MachineConfig().evolve(l2_latency=20),
        MachineConfig().evolve(int_alus=1),
        MachineConfig().evolve(mem_latency_first=300),
    ]
    return grid_tasks(configs, traces)


@pytest.fixture(scope="module")
def order(tasks):
    """The cells in dispatch order: grouped by trace."""
    return engine._dispatch_order(tasks, list(range(len(tasks))))


@pytest.fixture(scope="module")
def clean(tasks):
    return [s.cycles for s in run_grid(tasks)]


def cycles(grid):
    return [s.cycles if s is not None else None for s in grid]


def instants(telemetry, name):
    return [span for span in telemetry.tracer.spans()
            if span.instant and span.name == name]


def spans_of(telemetry, name, index):
    return [span for span in telemetry.tracer.spans()
            if span.name == name and not span.instant
            and span.attributes.get("index") == index]


@needs_fork
class TestSendAhead:
    # With 10 cells and jobs=2, worker 0 starts on order[0] with
    # order[1] queued behind it, and worker 1 on order[2] with order[3]
    # queued (the cells of one trace, gzip's, come first).

    def test_kill_requeues_queued_cell_uncharged(self, tasks, order,
                                                 clean):
        telemetry = Telemetry.armed()
        with faults.injected(FaultInjector([Fault("kill", order[0])])):
            grid = run_grid(tasks, jobs=2, telemetry=telemetry)
        assert cycles(grid) == clean
        snap = telemetry.snapshot()
        assert snap["workers.deaths"]["value"] == 1
        assert snap["tasks.resubmitted"]["value"] == 1
        assert [e.attributes["index"]
                for e in instants(telemetry, "resubmit")] == [order[0]]
        # order[1] was queued on the dead worker: one queue wait, one
        # run, both at attempt 0 — it was never charged.
        queued = spans_of(telemetry, "queue", order[1])
        runs = spans_of(telemetry, "run", order[1])
        assert [s.attributes["attempt"] for s in queued] == [0]
        assert [(s.attributes["attempt"], s.attributes["outcome"])
                for s in runs] == [(0, "ok")]

    def test_queued_cell_deadline_starts_when_it_runs(self, tasks, order,
                                                      clean):
        # order[0] and order[1] each take 1 s against a 1.5 s budget.
        # Had order[1]'s deadline started when it was sent (with
        # order[0]), it would expire at 1.5 s, before it ends at 2 s.
        injector = FaultInjector([
            Fault("delay", order[0], seconds=1.0),
            Fault("delay", order[1], seconds=1.0),
        ])
        telemetry = Telemetry.armed()
        with faults.injected(injector):
            grid = run_grid(tasks, jobs=2, timeout=1.5,
                            telemetry=telemetry)
        assert cycles(grid) == clean
        assert "tasks.timeouts" not in telemetry.snapshot()
        run = spans_of(telemetry, "run", order[1])[0]
        queue = spans_of(telemetry, "queue", order[1])[0]
        # The run span starts where the queue wait ends, after order[0].
        assert run.start >= queue.end
        assert queue.end - queue.start >= 0.9

    def test_degradation_returns_queued_cells(self, tasks, order, clean):
        # Worker 0 dies on order[0]; worker 1 is still busy with
        # order[2] and holds order[3] queued when the pool gives up, so
        # the in-process fallback must pick up both.
        injector = FaultInjector([
            Fault("kill", order[0]),
            Fault("delay", order[2], seconds=0.5),
        ])
        with faults.injected(injector):
            with pytest.warns(RuntimeWarning, match="unhealthy"):
                grid = run_grid(tasks, jobs=2, max_worker_deaths=0)
        assert cycles(grid) == clean
        assert grid.failures == []

    def test_stop_terminates_worker_with_queued_cell(self, tasks):
        context = multiprocessing.get_context("fork")
        injector = FaultInjector([Fault("delay", 0, seconds=30.0)])
        with faults.injected(injector):
            worker = engine._Worker(context, tasks)
        worker.send(0, 0)
        worker.send(1, 0)
        worker.current = None
        worker.queued = (1, 0)
        started = time.monotonic()
        worker.stop()
        assert not worker.process.is_alive()
        # Terminated at once, not asked politely (which would only be
        # read after both cells) and then killed.
        assert worker.process.exitcode == -signal.SIGTERM
        assert time.monotonic() - started < 1.0

    def test_tail_is_never_sent_ahead(self, tasks, order, clean,
                                      monkeypatch):
        sent = []
        original = engine._Worker.send

        def record(self, index, attempt):
            sent.append((index, self.current, self.queued))
            original(self, index, attempt)

        monkeypatch.setattr(engine._Worker, "send", record)
        grid = run_grid(tasks, jobs=2)
        assert cycles(grid) == clean
        assert [i for i, _, _ in sent] == order
        ahead = [order.index(i) for i, current, _ in sent
                 if current is not None]
        assert ahead, "no cell was sent ahead"
        # Only cells sent while more than `jobs` cells waited go ahead.
        assert max(ahead) < len(tasks) - 2


@needs_fork
class TestResultsAcrossJobs:
    def test_results_json_byte_identical_for_jobs_1_2_4(self, tmp_path):
        sealed = {}
        for jobs in (1, 2, 4):
            run_dir = tmp_path / f"jobs{jobs}"
            assert main(["screen", "-b", "gzip,mcf", "-n", "300",
                         "--jobs", str(jobs),
                         "--run-dir", str(run_dir)]) == 0
            sealed[jobs] = (run_dir / "results.json").read_bytes()
        assert sealed[2] == sealed[1]
        assert sealed[4] == sealed[1]
