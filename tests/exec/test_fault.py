"""Tests for the engine's fault tolerance (repro.exec).

Every failure mode the supervisor claims to survive is demonstrated
here with the deterministic injector from
:mod:`repro.guard.faults`: transient errors retried to success,
permanent errors skipped with structured records, workers killed
mid-grid and their tasks resubmitted, hung tasks timed out, an
unhealthy pool degrading to in-process execution — all with results
bit-identical to a fault-free serial run.
"""

import multiprocessing

import pytest

from repro.core import PBExperiment
from repro.cpu import MachineConfig
from repro.exec import (
    GridError,
    GridResult,
    ResultCache,
    RetryPolicy,
    grid_tasks,
    run_grid,
)
from repro.guard import faults
from repro.guard.faults import ALWAYS, Fault, FaultInjector, InjectedFault
from repro.workloads import benchmark_trace

SUBSET = [
    "Reorder Buffer Entries",
    "LSQ Entries",
    "BPred Type",
    "Int ALUs",
    "L1 D-Cache Size",
    "L2 Cache Latency",
    "Memory Latency First",
]

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not fork_available, reason="needs fork")


@pytest.fixture(scope="module")
def traces():
    return {
        "gzip": benchmark_trace("gzip", 800),
        "mcf": benchmark_trace("mcf", 800),
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


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-1.0)

    def test_delay_progression_capped(self):
        policy = RetryPolicy(
            max_attempts=9, backoff=1.0, backoff_factor=2.0,
            max_backoff=3.0,
        )
        assert [policy.delay(n) for n in range(1, 5)] == \
            [1.0, 2.0, 3.0, 3.0]

    def test_zero_backoff_never_sleeps(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        policy.pause(1)
        policy.pause(2)
        assert slept == []

    def test_pause_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, backoff=0.5, sleep=slept.append,
        )
        policy.pause(1)
        policy.pause(2)
        assert slept == [0.5, 1.0]

    def test_jitter_fraction_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=5, backoff=1.0, jitter=0.5, jitter_seed=7,
        )
        again = RetryPolicy(
            max_attempts=5, backoff=1.0, jitter=0.5, jitter_seed=7,
        )
        schedule = [policy.delay(n, token="cell") for n in range(1, 5)]
        assert schedule == \
            [again.delay(n, token="cell") for n in range(1, 5)]

    def test_jitter_stays_inside_the_band(self):
        plain = RetryPolicy(
            max_attempts=9, backoff=1.0, backoff_factor=2.0,
            max_backoff=8.0,
        )
        jittered = RetryPolicy(
            max_attempts=9, backoff=1.0, backoff_factor=2.0,
            max_backoff=8.0, jitter=0.25, jitter_seed=3,
        )
        for failures in range(1, 6):
            for token in (None, "a-key", "b-key", 17):
                raw = plain.delay(failures)
                spread = jittered.delay(failures, token=token)
                assert raw * 0.75 <= spread <= raw

    def test_jitter_decorrelates_tokens(self):
        # The point of the token: tasks reclaimed in one sweep must
        # not republish in lockstep.
        policy = RetryPolicy(
            max_attempts=3, backoff=1.0, jitter=1.0, jitter_seed=0,
        )
        delays = {policy.delay(1, token=t) for t in range(16)}
        assert len(delays) == 16

    def test_jitter_seed_changes_the_schedule(self):
        one = RetryPolicy(
            max_attempts=3, backoff=1.0, jitter=1.0, jitter_seed=1,
        )
        two = RetryPolicy(
            max_attempts=3, backoff=1.0, jitter=1.0, jitter_seed=2,
        )
        assert one.delay(1, token="k") != two.delay(1, token="k")

    def test_jitter_unit_is_a_unit(self):
        policy = RetryPolicy(max_attempts=3, jitter=1.0, jitter_seed=9)
        for failures in range(1, 8):
            assert 0.0 <= policy.jitter_unit(failures, "t") < 1.0


class TestFaultInjector:
    """The task channel of the injector; the I/O channels and the
    shared grammar are in ``tests/guard``."""

    def test_from_spec(self):
        injector = FaultInjector.from_spec(
            "kill:5,raise:12:2,delay:20:1:0.25,interrupt:7,"
            "raise:9:always"
        )
        assert injector.faults == [
            Fault("kill", 5), Fault("raise", 12, 2),
            Fault("delay", 20, 1, 0.25), Fault("interrupt", 7),
            Fault("raise", 9, ALWAYS),
        ]
        assert {f.channel for f in injector.faults} == {"task"}

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="justanaction"):
            FaultInjector.from_spec("justanaction")
        with pytest.raises(ValueError, match="explode:3"):
            FaultInjector.from_spec("explode:3")

    def test_transient_fires_only_early_attempts(self):
        injector = FaultInjector([Fault("raise", 4, 2)])
        with pytest.raises(InjectedFault):
            injector.fire(4, 0)
        with pytest.raises(InjectedFault):
            injector.fire(4, 1)
        injector.fire(4, 2)          # attempt budget spent: no fault
        injector.fire(5, 0)          # unscheduled index: no fault
        assert injector.fired == [("task", 4, "raise")] * 2

    def test_stall_uses_the_separate_stall_clock(self):
        # stall_sleep is deliberately not the instrumented sleep: a
        # distributed worker rebinds it to its heartbeat-suppressing
        # sleeper, so a stall looks hung while a delay looks slow.
        slept, stalled = [], []
        injector = FaultInjector(
            [Fault("stall", 1, seconds=0.5),
             Fault("delay", 2, seconds=0.25)],
            sleep=slept.append, stall_sleep=stalled.append,
        )
        injector.fire(1, 0)
        injector.fire(2, 0)
        assert stalled == [0.5]
        assert slept == [0.25]
        assert injector.fired == [("task", 1, "stall"),
                                  ("task", 2, "delay")]

    def test_from_spec_parses_stall(self):
        injector = FaultInjector.from_spec("stall:9:1:2.0")
        assert injector.faults == [Fault("stall", 9, 1, 2.0)]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action 'explode'"):
            Fault("explode", 0)


class TestSerialFaults:
    def test_fail_fast_propagates_original_error(self, tasks):
        with faults.injected(FaultInjector([Fault("raise", 1)])):
            with pytest.raises(InjectedFault):
                run_grid(tasks)

    def test_retry_then_succeed_bit_identical(self, tasks, clean):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, backoff=0.25, sleep=slept.append,
        )
        injector = FaultInjector([Fault("raise", 2, 2)])
        with faults.injected(injector):
            grid = run_grid(tasks, on_error="retry", retry=policy)
        assert cycles(grid) == clean
        assert injector.fired == [("task", 2, "raise"), ("task", 2, "raise")]
        assert slept == [0.25, 0.5]

    def test_retry_exhaustion_raises_grid_error(self, tasks):
        with faults.injected(
            FaultInjector([Fault("raise", 0, ALWAYS)])
        ):
            with pytest.raises(GridError) as info:
                run_grid(
                    tasks, on_error="retry",
                    retry=RetryPolicy(max_attempts=2),
                )
        record = info.value.record
        assert record.index == 0
        assert record.kind == "error"
        assert record.attempts == 2
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_skip_returns_partial_grid(self, tasks, clean):
        with faults.injected(
            FaultInjector([Fault("raise", 1, ALWAYS)])
        ):
            grid = run_grid(tasks, on_error="skip")
        assert isinstance(grid, GridResult)
        assert not grid.ok
        assert grid[1] is None
        assert grid.failed_indices() == [1]
        record = grid.failure_at(1)
        assert record.kind == "error"
        assert record.error_type == "InjectedFault"
        expected = [c if i != 1 else None for i, c in enumerate(clean)]
        assert cycles(grid) == expected

    def test_skip_progress_reaches_total(self, tasks):
        seen = []
        with faults.injected(
            FaultInjector([Fault("raise", 0, ALWAYS)])
        ):
            run_grid(
                tasks, on_error="skip",
                progress=lambda d, t: seen.append((d, t)),
            )
        assert seen[-1] == (len(tasks), len(tasks))

    def test_injected_interrupt_propagates(self, tasks):
        with faults.injected(
            FaultInjector([Fault("interrupt", 3)])
        ):
            with pytest.raises(KeyboardInterrupt):
                run_grid(tasks)

    def test_stall_is_invisible_to_results(self, tasks, clean):
        injector = FaultInjector(
            {Fault("stall", 2, seconds=30.0)},
            stall_sleep=lambda s: None,
        )
        with faults.injected(injector):
            grid = run_grid(tasks)
        assert cycles(grid) == clean
        assert injector.fired == [("task", 2, "stall")]

    def test_invalid_on_error_rejected(self, tasks):
        with pytest.raises(ValueError, match="on_error"):
            run_grid(tasks, on_error="explode")


@needs_fork
class TestPoolFaults:
    def test_worker_kill_resubmits_bit_identical(self, tasks, clean):
        with faults.injected(FaultInjector([Fault("kill", 3)])):
            grid = run_grid(tasks, jobs=2)
        assert cycles(grid) == clean

    def test_timeout_kills_hung_task_then_retries(self, tasks, clean):
        injector = FaultInjector([Fault("delay", 0, 1, seconds=60.0)])
        with faults.injected(injector):
            grid = run_grid(
                tasks, jobs=2, timeout=1.0, on_error="retry",
            )
        assert cycles(grid) == clean

    def test_timeout_exhaustion_is_recorded(self, tasks, clean):
        injector = FaultInjector(
            {Fault("delay", 0, ALWAYS, seconds=60.0)}
        )
        with faults.injected(injector):
            grid = run_grid(
                tasks, jobs=2, timeout=0.5, on_error="skip",
                retry=RetryPolicy(max_attempts=2),
            )
        record = grid.failure_at(0)
        assert record is not None and record.kind == "timeout"
        expected = [c if i != 0 else None for i, c in enumerate(clean)]
        assert cycles(grid) == expected

    def test_pool_error_skip_is_partial(self, tasks, clean):
        with faults.injected(
            FaultInjector([Fault("raise", 4, ALWAYS)])
        ):
            grid = run_grid(
                tasks, jobs=2, on_error="skip",
                retry=RetryPolicy(max_attempts=2),
            )
        assert grid.failed_indices() == [4]
        expected = [c if i != 4 else None for i, c in enumerate(clean)]
        assert cycles(grid) == expected

    def test_unhealthy_pool_degrades_to_in_process(self, tasks, clean):
        injector = FaultInjector([
            Fault("kill", 0), Fault("kill", 2), Fault("kill", 4),
        ])
        with faults.injected(injector):
            with pytest.warns(RuntimeWarning, match="unhealthy"):
                grid = run_grid(
                    tasks, jobs=2, on_error="retry",
                    retry=RetryPolicy(max_attempts=4),
                    max_worker_deaths=1,
                )
        assert cycles(grid) == clean


#: A segment line cut short by a crash mid-append.
TORN_LINE = b'{"v": 2, "key": "deadbeef", "sha": "'


class TestCacheFaults:
    def test_contains_rejects_torn_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (tmp_path / "cache" / "segment.jsonl").write_bytes(TORN_LINE)
        with pytest.warns(RuntimeWarning, match="torn: 1"):
            assert "deadbeef" not in cache
        assert cache.corrupt == 1
        assert cache.dropped == {"torn": 1}

    def test_get_counts_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (tmp_path / "cache" / "segment.jsonl").write_bytes(TORN_LINE)
        with pytest.warns(RuntimeWarning, match="torn: 1"):
            assert cache.get("deadbeef") is None
        assert cache.corrupt == 1
        assert cache.misses == 1

    def test_contains_agrees_with_get(self, tmp_path, tasks):
        from repro.exec import task_key

        cache = ResultCache(tmp_path / "cache")
        key = task_key(tasks[0])
        run_grid(tasks[:1], cache=cache)
        fresh = ResultCache(tmp_path / "cache")
        assert key in fresh
        assert fresh.get(key) is not None

    def test_failing_cache_put_warns_once_and_continues(
        self, tmp_path, tasks, clean
    ):
        class ReadOnlyCache(ResultCache):
            def put(self, key, stats):
                raise OSError("disk full")

        cache = ReadOnlyCache(tmp_path / "cache")
        with pytest.warns(RuntimeWarning, match="cache") as warned:
            grid = run_grid(tasks, cache=cache)
        assert cycles(grid) == clean
        cache_warnings = [
            w for w in warned
            if "cache" in str(w.message)
        ]
        assert len(cache_warnings) == 1


class TestPBExperimentFaults:
    def test_skip_names_failed_cell(self, traces):
        experiment = PBExperiment(traces, parameter_names=SUBSET)
        n_bench = len(traces)
        # Fail gzip's cell of design row 3 permanently.
        index = 3 * n_bench + list(traces).index("gzip")
        with faults.injected(
            FaultInjector([Fault("raise", index, ALWAYS)])
        ):
            result = experiment.run(on_error="skip")
        assert not result.complete
        assert result.failed_cells() == [(3, "gzip")]
        assert "row 3" in result.failures[0].describe()
        assert result.responses["gzip"][3] is None
        # The incomplete benchmark has no effect table; the complete
        # one still supports the full ranking machinery.
        assert "gzip" not in result.effects
        assert "mcf" in result.effects
        assert result.ranks()["mcf"]

    def test_retry_makes_experiment_bit_identical(self, traces):
        experiment = PBExperiment(traces, parameter_names=SUBSET)
        reference = experiment.run()
        with faults.injected(
            FaultInjector([Fault("raise", 5, 2), Fault("raise", 20)])
        ):
            retried = experiment.run(
                on_error="retry", retry=RetryPolicy(max_attempts=3),
            )
        assert retried.responses == reference.responses
        for bench in reference.responses:
            assert retried.effects[bench].effects == \
                reference.effects[bench].effects
        assert retried.ranks() == reference.ranks()


@pytest.mark.slow
class TestAcceptance:
    """The issue's acceptance scenario at full 88-run scale.

    A seeded fault-injection run — one worker kill, two transient
    task failures, and one Ctrl-C/resume cycle — of the 88-run PB
    screen must produce effects and sum-of-ranks bit-identical to a
    fault-free serial run.
    """

    @needs_fork
    def test_faulty_88_run_screen_bit_identical(self, tmp_path):
        from repro.core import rank_parameters_from_result

        traces = {"gzip": benchmark_trace("gzip", 800)}
        experiment = PBExperiment(traces)
        reference = experiment.run()           # fault-free, serial

        journal = tmp_path / "screen.journal"
        # Phase 1: Ctrl-C (injected) at cell 30 of the journaled run.
        with faults.injected(
            FaultInjector([Fault("interrupt", 30)])
        ):
            with pytest.raises(KeyboardInterrupt):
                experiment.run(journal=journal)

        # Phase 2: resume on a worker pool, with a worker kill and
        # two transient task failures along the way.
        with faults.injected(FaultInjector([
            Fault("kill", 45),
            Fault("raise", 50),
            Fault("raise", 60),
        ])):
            result = experiment.run(
                jobs=2, journal=journal, on_error="retry",
                retry=RetryPolicy(max_attempts=3),
            )

        assert result.complete
        assert result.responses == reference.responses
        for bench in reference.responses:
            assert result.effects[bench].effects == \
                reference.effects[bench].effects
        ranking = rank_parameters_from_result(result)
        clean = rank_parameters_from_result(reference)
        assert ranking.factors == clean.factors
        assert ranking.sums == clean.sums


class TestSweepFaults:
    def test_skip_drops_value_from_best(self, traces):
        from repro.core import sweep

        values = [32, 64, 128]
        reference = sweep(
            traces, "rob_entries", values,
        )
        # Fail every benchmark cell of the best value permanently.
        best_index = values.index(reference.best_value())
        n_bench = len(traces)
        schedule = {
            Fault("raise", best_index * n_bench + j, ALWAYS)
            for j in range(n_bench)
        }
        with faults.injected(FaultInjector(schedule)):
            partial = sweep(
                traces, "rob_entries", values, on_error="skip",
            )
        assert len(partial.failures) == n_bench
        totals = partial.total_cycles()
        assert totals[best_index] is None
        assert partial.best_value() != reference.best_value()
        assert "failed" in partial.table()

    def test_all_values_failed_raises(self, traces):
        from repro.core import sweep

        n_cells = 2 * len(traces)
        schedule = {Fault("raise", i, ALWAYS) for i in range(n_cells)}
        with faults.injected(FaultInjector(schedule)):
            partial = sweep(
                traces, "rob_entries", [32, 64], on_error="skip",
            )
        with pytest.raises(ValueError, match="failed"):
            partial.best_value()
