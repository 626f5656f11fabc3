"""Tests for the distributed worker (repro.dist.worker).

The worker's obligations: execute claimed tickets and seal outcomes
(success and failure alike), keep heartbeating while it computes,
fall silent — without dying — under a ``stall`` fault, quarantine
torn tickets instead of trusting them, and stop promptly on a drain
marker, a task budget, or an idle budget.
"""

import threading
import time

import pytest

from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.dist.spool import Spool
from repro.dist.worker import DistWorker
from repro.exec import grid_tasks, task_key
from repro.exec.engine import _execute
from repro.guard import faults
from repro.guard.faults import Fault, FaultInjector
from repro.workloads import benchmark_trace


@pytest.fixture(scope="module")
def tasks():
    traces = {"gzip": benchmark_trace("gzip", 600)}
    configs = [MachineConfig(),
               MachineConfig().evolve(rob_entries=64)]
    return grid_tasks(configs, traces)


@pytest.fixture()
def spool(tmp_path):
    spool = Spool(tmp_path / "spool")
    spool.ensure()
    return spool


def _publish(spool, tasks, indices=None):
    keys = []
    for i in indices if indices is not None else range(len(tasks)):
        key = task_key(tasks[i], version=SIMULATOR_VERSION)
        spool.publish_task(key, i, 0, tasks[i])
        keys.append(key)
    return keys


class TestExecution:
    def test_drains_spool_and_seals_results(self, spool, tasks):
        keys = _publish(spool, tasks)
        worker = DistWorker(spool, worker_id="w-test",
                            max_tasks=len(tasks), poll=0.01)
        assert worker.run() == len(tasks)
        assert sorted(spool.result_keys()) == sorted(keys)
        for i, key in enumerate(keys):
            record = spool.read_result(key)
            assert record["ok"] is True
            assert record["worker"] == "w-test"
            assert record["index"] == i
            # Sealed payload is the deterministic simulator's output:
            # byte-equal to executing the same cell locally.
            assert record["stats"] == _execute(tasks[i])

    def test_leases_are_released_after_execution(self, spool, tasks):
        _publish(spool, tasks, [0])
        DistWorker(spool, max_tasks=1, poll=0.01).run()
        assert spool.leased_keys() == []
        assert spool.pending_keys() == []

    def test_failure_is_sealed_not_raised(self, spool, tasks):
        keys = _publish(spool, tasks, [0])
        with faults.injected(
            FaultInjector([Fault("raise", 0, faults.ALWAYS)])
        ):
            executed = DistWorker(spool, worker_id="w-err",
                                  max_tasks=1, poll=0.01).run()
        assert executed == 1
        record = spool.read_result(keys[0])
        assert record["ok"] is False
        assert record["error_type"] == "InjectedFault"
        assert "task 0" in record["message"]

    def test_torn_ticket_is_quarantined(self, spool, tasks):
        keys = _publish(spool, tasks, [0])
        path = spool.task_path(keys[0])
        path.write_bytes(path.read_bytes()[:-9])
        executed = DistWorker(spool, max_tasks=1, poll=0.01,
                              max_idle=0.05).run()
        assert executed == 0  # evidence, not work
        assert spool.pending_keys() == []
        assert spool.leased_keys() == []
        assert list(spool.quarantine_dir.iterdir())
        assert spool.result_keys() == []


class TestLiveness:
    def test_heartbeats_flow_while_idle(self, spool):
        worker = DistWorker(spool, worker_id="w-hb", poll=0.01,
                            heartbeat_interval=0.01, max_idle=0.15)
        worker.run()
        assert "w-hb" in spool.read_heartbeats()

    def test_stall_sleep_suppresses_heartbeats(self, spool,
                                               monkeypatch):
        worker = DistWorker(spool, worker_id="w-stall")
        states = []

        def instrumented_sleep(seconds):
            states.append((worker._suppress_hb.is_set(), seconds))

        monkeypatch.setattr(time, "sleep", instrumented_sleep)
        worker._stall_sleep(1.5)
        assert states == [(True, 1.5)]
        assert not worker._suppress_hb.is_set()

    def test_stall_sleep_clears_suppression_on_error(self, spool,
                                                     monkeypatch):
        worker = DistWorker(spool, worker_id="w-stall")

        def failing_sleep(seconds):
            raise RuntimeError("scripted")

        monkeypatch.setattr(time, "sleep", failing_sleep)
        with pytest.raises(RuntimeError):
            worker._stall_sleep(1.0)
        assert not worker._suppress_hb.is_set()

    def test_run_routes_stall_faults_through_worker(self, spool):
        # run() must rebind the active injector's stall clock so a
        # stall fault silences this worker's heartbeats for real.
        injector = FaultInjector()
        worker = DistWorker(spool, max_idle=0.05, poll=0.01)
        with faults.injected(injector):
            worker.run()
        assert injector.stall_sleep == worker._stall_sleep


class TestStopping:
    def test_drain_marker_stops_worker(self, spool, tasks):
        _publish(spool, tasks)
        spool.drain()
        worker = DistWorker(spool, poll=0.01)
        assert worker.run() == 0
        assert spool.pending_keys()  # nothing was claimed

    def test_max_idle_stops_worker(self, spool):
        worker = DistWorker(spool, poll=0.01, max_idle=0.05)
        started = time.monotonic()
        worker.run()
        assert time.monotonic() - started < 5.0

    def test_max_tasks_stops_worker(self, spool, tasks):
        _publish(spool, tasks)
        worker = DistWorker(spool, max_tasks=1, poll=0.01)
        assert worker.run() == 1
        assert len(spool.pending_keys()) == len(tasks) - 1

    def test_heartbeat_thread_is_stopped(self, spool):
        DistWorker(spool, poll=0.01, max_idle=0.05,
                   heartbeat_interval=0.01).run()
        lingering = [t for t in threading.enumerate()
                     if t.name.startswith("heartbeat-")]
        assert lingering == []
