"""Engine integration: telemetry through run_grid, guarded observers,
and cache counter surfacing."""

import warnings

import pytest

from repro.cpu import MachineConfig
from repro.exec import ResultCache, SimTask, run_grid
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.obs.telemetry import phase_of
from repro.workloads import benchmark_trace


@pytest.fixture(scope="module")
def traces():
    return [benchmark_trace("gzip", 600), benchmark_trace("mcf", 600)]


def _tasks(traces, repeat=2):
    return [
        SimTask(config=MachineConfig(), trace=trace)
        for trace in traces for _ in range(repeat)
    ]


class TestTelemetryFacade:
    def test_armed_builds_components(self):
        telemetry = Telemetry.armed(simulator_counters=True)
        assert isinstance(telemetry.tracer, Tracer)
        assert isinstance(telemetry.metrics, MetricsRegistry)
        assert telemetry.simulator_counters
        assert telemetry.enabled

    def test_partial_arming(self):
        telemetry = Telemetry.armed(trace=False)
        assert telemetry.tracer is None
        assert telemetry.metrics is not None
        assert telemetry.enabled

    def test_phase_without_tracer_is_noop(self):
        telemetry = Telemetry()
        with telemetry.phase("x"):
            pass
        assert not telemetry.enabled
        assert telemetry.snapshot() == {}

    def test_phase_of_accepts_none(self):
        with phase_of(None, "x"):
            pass

    def test_phase_records_span(self):
        telemetry = Telemetry.armed()
        with telemetry.phase("effects", rows=88):
            pass
        (span,) = telemetry.tracer.spans()
        assert span.name == "effects"
        assert span.category == "phase"
        assert span.attributes == {"rows": 88}


class TestGridTelemetry:
    def test_results_identical_with_telemetry(self, traces):
        tasks = _tasks(traces)
        bare = run_grid(tasks)
        telemetry = Telemetry.armed(simulator_counters=True)
        observed = run_grid(tasks, telemetry=telemetry)
        assert [s.cycles for s in observed] == [s.cycles for s in bare]

    def test_counters_match_grid(self, traces):
        tasks = _tasks(traces)
        telemetry = Telemetry.armed(simulator_counters=True)
        run_grid(tasks, telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["grid.tasks"]["value"] == len(tasks)
        assert snap["tasks.completed"]["value"] == len(tasks)
        assert snap["tasks.simulated"]["value"] == len(tasks)
        assert snap["task.seconds"]["count"] == len(tasks)
        assert snap["sim.cycles"]["value"] > 0
        assert snap["sim.stall.mispredict"]["value"] >= 0

    def test_spans_cover_lifecycle(self, traces):
        tasks = _tasks(traces, repeat=1)
        telemetry = Telemetry.armed()
        run_grid(tasks, telemetry=telemetry)
        spans = telemetry.tracer.spans()
        names = {(s.category, s.name) for s in spans}
        assert ("grid", "grid") in names
        assert ("phase", "preload") in names
        assert ("task", "run") in names
        runs = [s for s in spans if s.name == "run"]
        assert len(runs) == len(tasks)
        for span in runs:
            assert span.end is not None
            assert span.attributes["outcome"] == "ok"

    def test_grid_span_attributes(self, traces):
        tasks = _tasks(traces, repeat=1)
        telemetry = Telemetry.armed()
        run_grid(tasks, telemetry=telemetry)
        (grid_span,) = [s for s in telemetry.tracer.spans()
                        if s.name == "grid"]
        assert grid_span.attributes["tasks"] == len(tasks)
        assert grid_span.attributes["completed"] == len(tasks)
        assert grid_span.attributes["failures"] == 0

    def test_sim_counters_are_opt_in(self, traces):
        tasks = _tasks(traces, repeat=1)
        telemetry = Telemetry.armed(simulator_counters=False)
        run_grid(tasks, telemetry=telemetry)
        assert not any(name.startswith("sim.")
                       for name in telemetry.metrics.names())


class TestGuardedObservation:
    def test_raising_progress_warns_once_and_continues(self, traces):
        tasks = _tasks(traces, repeat=1)
        calls = []

        def bad_progress(done, total):
            calls.append(done)
            raise RuntimeError("observer bug")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_grid(tasks, progress=bad_progress)
        relevant = [w for w in caught
                    if "callback failed" in str(w.message)]
        assert len(relevant) == 1
        assert all(stats is not None for stats in result)
        # The callback keeps being invoked; only the warning is
        # deduplicated.
        assert len(calls) == len(tasks)

    def test_raising_tracer_warns_once_and_continues(self, traces):
        tasks = _tasks(traces, repeat=1)

        class BrokenTracer:
            def begin(self, *args, **kwargs):
                raise RuntimeError("tracer bug")

            finish = event = begin

        telemetry = Telemetry(tracer=BrokenTracer())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bare = run_grid(tasks)
            observed = run_grid(tasks, telemetry=telemetry)
        relevant = [w for w in caught
                    if "callback failed" in str(w.message)]
        assert len(relevant) == 1
        assert [s.cycles for s in observed] == [s.cycles for s in bare]


class TestCacheCounters:
    def test_cache_counters_method(self):
        cache = ResultCache()
        assert cache.counters() == {
            "corrupt": 0, "hits": 0, "misses": 0, "put_failures": 0,
        }

    def test_cache_counters_surface_in_registry(self, traces):
        tasks = _tasks(traces, repeat=1)
        cache = ResultCache()
        telemetry = Telemetry.armed()
        run_grid(tasks, cache=cache, telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["cache.misses"]["value"] == len(tasks)
        assert snap["cache.hits"]["value"] == 0
        assert snap["cache.put_failures"]["value"] == 0

    def test_warm_cache_hits_counted_and_restored(self, traces):
        tasks = _tasks(traces, repeat=1)
        cache = ResultCache()
        run_grid(tasks, cache=cache)
        telemetry = Telemetry.armed()
        run_grid(tasks, cache=cache, telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["cache.hits"]["value"] == len(tasks)
        assert snap["tasks.restored.cache"]["value"] == len(tasks)
        assert "tasks.simulated" not in snap

    def test_shared_registry_accumulates_deltas(self, traces):
        """A registry reused across grids sees per-grid deltas summed,
        not the cache's (larger) lifetime totals repeated."""
        tasks = _tasks(traces, repeat=1)
        cache = ResultCache()
        telemetry = Telemetry.armed()
        run_grid(tasks, cache=cache, telemetry=telemetry)   # all misses
        run_grid(tasks, cache=cache, telemetry=telemetry)   # all hits
        snap = telemetry.snapshot()
        assert snap["cache.misses"]["value"] == len(tasks)
        assert snap["cache.hits"]["value"] == len(tasks)

    def test_put_failure_counter_increments(self, traces, monkeypatch):
        tasks = _tasks(traces, repeat=1)
        cache = ResultCache()

        def failing_put(key, stats):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "put", failing_put)
        telemetry = Telemetry.armed()
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            result = run_grid(tasks, cache=cache, telemetry=telemetry)
        assert all(stats is not None for stats in result)
        assert cache.put_failures == 1
        snap = telemetry.snapshot()
        assert snap["cache.put_failures"]["value"] == 1
