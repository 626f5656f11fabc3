"""Tests for the execution engine (repro.exec).

The engine's contract has three legs, each covered here:

* determinism — parallel and serial runs of the same grid produce
  bit-identical responses, effects and ranks;
* caching — a warm cache answers a repeated grid with zero calls into
  the simulator, and a simulator version bump invalidates it;
* keying — the content hash reacts to every input that can change a
  measurement, and nothing else.
"""

import multiprocessing
import warnings

import pytest

from repro.core import PBExperiment
from repro.cpu import MachineConfig, SIMULATOR_VERSION, simulate
from repro.exec import ResultCache, SimTask, grid_tasks, run_grid, task_key
import repro.exec.engine as engine
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


@pytest.fixture(scope="module")
def traces():
    return {
        "gzip": benchmark_trace("gzip", 1200),
        "mcf": benchmark_trace("mcf", 1200),
    }


@pytest.fixture(scope="module")
def serial_result(traces):
    return PBExperiment(traces, parameter_names=SUBSET).run()


def _counting(monkeypatch):
    """Replace the engine's simulate with a counting wrapper."""
    calls = {"n": 0}
    real = engine.simulate

    def counting_simulate(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "simulate", counting_simulate)
    return calls


class TestDeterminism:
    @pytest.mark.skipif(not fork_available, reason="needs fork")
    def test_parallel_identical_to_serial(self, traces, serial_result):
        parallel = PBExperiment(traces, parameter_names=SUBSET) \
            .run(jobs=3)
        assert parallel.responses == serial_result.responses
        for bench in serial_result.responses:
            assert parallel.effects[bench].effects == \
                serial_result.effects[bench].effects
        assert parallel.ranks() == serial_result.ranks()

    def test_results_in_task_order(self, traces):
        configs = [
            MachineConfig(),
            MachineConfig().evolve(rob_entries=64, lsq_entries=32),
            MachineConfig().evolve(l2_latency=20),
        ]
        stats = run_grid(grid_tasks(configs, traces))
        index = 0
        for config in configs:
            for bench in traces:
                expected = simulate(config, traces[bench], warmup=True)
                assert stats[index].cycles == expected.cycles
                index += 1

    def test_progress_counts_every_task(self, traces):
        tasks = grid_tasks([MachineConfig()], traces)
        seen = []
        run_grid(tasks, progress=lambda done, total: seen.append(
            (done, total)
        ))
        assert seen == [(1, 2), (2, 2)]

    def test_jobs_must_be_positive(self, traces):
        tasks = grid_tasks([MachineConfig()], traces)
        with pytest.raises(ValueError, match="jobs"):
            run_grid(tasks, jobs=0)


class TestCache:
    def test_warm_cache_runs_zero_simulations(
        self, tmp_path, traces, serial_result, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        first = PBExperiment(traces, parameter_names=SUBSET) \
            .run(cache=ResultCache(cache_dir))
        calls = _counting(monkeypatch)
        # A fresh ResultCache instance: every hit must come off disk.
        warm = ResultCache(cache_dir)
        second = PBExperiment(traces, parameter_names=SUBSET) \
            .run(cache=warm)
        assert calls["n"] == 0
        assert warm.hits == 16 * len(traces) and warm.misses == 0
        assert second.responses == first.responses == \
            serial_result.responses
        assert second.ranks() == serial_result.ranks()

    def test_version_bump_invalidates(self, tmp_path, traces,
                                      monkeypatch):
        task = SimTask(config=MachineConfig(), trace=traces["gzip"])
        cache = ResultCache(tmp_path / "cache")
        calls = _counting(monkeypatch)
        run_grid([task], cache=cache)
        assert calls["n"] == 1
        run_grid([task], cache=cache)          # warm: no new call
        assert calls["n"] == 1
        run_grid([task], cache=cache, version=SIMULATOR_VERSION + "-next")
        assert calls["n"] == 2                 # version bump: re-measured

    def test_progress_includes_cache_hits(self, tmp_path, traces):
        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache(tmp_path / "cache")
        run_grid(tasks, cache=cache)
        seen = []
        run_grid(tasks, cache=cache, progress=lambda d, t: seen.append(
            (d, t)
        ))
        assert seen == [(1, 2), (2, 2)]

    def test_disk_roundtrip_preserves_stats(self, tmp_path, traces):
        task = SimTask(config=MachineConfig(), trace=traces["mcf"])
        key = task_key(task)
        stats = simulate(MachineConfig(), traces["mcf"], warmup=True)
        ResultCache(tmp_path / "cache").put(key, stats)
        loaded = ResultCache(tmp_path / "cache").get(key)
        assert loaded == stats

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (tmp_path / "cache" / "deadbeef.pkl").write_bytes(b"not a pickle")
        assert cache.get("deadbeef") is None

    def test_foreign_version_entry_rejected_on_get(self, tmp_path,
                                                   traces):
        """An entry *written* under another SIMULATOR_VERSION is
        rejected by its line's own ``sim`` field even when it sits
        under the right key (hand-migrated directories, edited
        files).  In a shared segment such lines are normal traffic
        after a version bump, so they are skipped without a warning
        and are not counted as damage."""
        task = SimTask(config=MachineConfig(), trace=traces["gzip"])
        key = task_key(task)
        stats = simulate(MachineConfig(), traces["gzip"], warmup=True)
        ResultCache(tmp_path / "cache", version="v-old").put(key, stats)
        cache = ResultCache(tmp_path / "cache", version="v-new")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key) is None
        assert cache.dropped == {}
        assert cache.counters()["corrupt"] == 0
        # Never trusted: the retry is still a miss.
        assert cache.get(key) is None
        assert cache.counters()["misses"] == 2

    def test_memory_only_cache(self, traces, monkeypatch):
        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache()
        calls = _counting(monkeypatch)
        first = run_grid(tasks, cache=cache)
        second = run_grid(tasks, cache=cache)
        assert calls["n"] == len(tasks)
        assert [s.cycles for s in first] == [s.cycles for s in second]


class TestTaskKey:
    def test_stable_for_equal_inputs(self, traces):
        a = SimTask(config=MachineConfig(), trace=traces["gzip"])
        b = SimTask(config=MachineConfig(), trace=traces["gzip"])
        assert task_key(a) == task_key(b)

    def test_config_changes_key(self, traces):
        base = SimTask(config=MachineConfig(), trace=traces["gzip"])
        other = SimTask(
            config=MachineConfig().evolve(rob_entries=64),
            trace=traces["gzip"],
        )
        assert task_key(base) != task_key(other)

    def test_trace_changes_key(self, traces):
        a = SimTask(config=MachineConfig(), trace=traces["gzip"])
        b = SimTask(config=MachineConfig(), trace=traces["mcf"])
        assert task_key(a) != task_key(b)

    def test_enhancement_settings_change_key(self, traces):
        plain = SimTask(config=MachineConfig(), trace=traces["gzip"])
        precompute = SimTask(
            config=MachineConfig(), trace=traces["gzip"],
            precompute_table=frozenset({1, 2, 3}),
        )
        prefetch = SimTask(
            config=MachineConfig(), trace=traces["gzip"],
            prefetch_lines=2,
        )
        keys = {task_key(plain), task_key(precompute), task_key(prefetch)}
        assert len(keys) == 3

    def test_version_changes_key(self, traces):
        task = SimTask(config=MachineConfig(), trace=traces["gzip"])
        assert task_key(task) != task_key(task, version="other")


class TestFingerprint:
    def test_memoised_and_stable(self, traces):
        trace = traces["gzip"]
        assert trace.fingerprint() == trace.fingerprint()
        rebuilt = benchmark_trace("gzip", 1200)
        assert rebuilt.fingerprint() == trace.fingerprint()

    def test_content_sensitive(self, traces):
        assert traces["gzip"].fingerprint() != traces["mcf"].fingerprint()
        longer = benchmark_trace("gzip", 1300)
        assert longer.fingerprint() != traces["gzip"].fingerprint()
