"""Streaming overhead: live telemetry must be nearly free.

The event log (:mod:`repro.obs.stream`) promises to be *strictly
observational* — and cheap enough to leave armed by default on every
``--run-dir`` run.  This module is where the cost claim is measured
and enforced: the same grid runs bare and with the full default
streaming surface armed (tracer + metrics registry + simulator
counters fanned out to an :class:`~repro.obs.EventWriter` lane), and
the streamed median may exceed the bare median by at most
:data:`OVERHEAD_CEILING` plus a small absolute slack for scheduler
noise.  The grid is sized so that slack is a small fraction of the 5 %
ceiling, and bare and streamed repetitions alternate so a host that
speeds up or slows down mid-run moves both medians alike.

With ``--manifest-dir`` the session also emits
``BENCH_obs_overhead.json`` (+ metrics JSONL of the last streamed
run); the committed baseline under ``benchmarks/baselines/`` then lets
``repro bench check`` hold two lines at once: the deterministic
``sim.*`` totals of a streamed run never drift (streaming cannot touch
the science), and the wall time of the whole session (every bare and
streamed repetition) stays inside the usual trajectory tolerance.
"""

import os
import statistics
import time
from pathlib import Path

import pytest

from repro.cpu import MachineConfig
from repro.exec import SimTask, run_grid
from repro.obs import EventWriter, Telemetry
from repro.workloads import benchmark_trace

BENCH, LENGTH = "gzip", 20_000
#: About 1.5 s of bare simulation: 5 % of it is several times the
#: slack.
TASKS = 320
REPS = 5

#: Streamed median / bare median may not exceed this ratio...
OVERHEAD_CEILING = 1.05
#: ... plus this absolute allowance (scheduler noise floor), under
#: 2 % of the bare grid so the ceiling, not the slack, decides.
SLACK_SECONDS = 0.02


@pytest.fixture(scope="module")
def grid_tasks():
    trace = benchmark_trace(BENCH, LENGTH)
    return [SimTask(config=MachineConfig(), trace=trace)
            for _ in range(TASKS)]


def _run(grid_tasks, telemetry):
    """(wall seconds, result) of one grid run."""
    start = time.perf_counter()
    result = run_grid(grid_tasks, telemetry=telemetry)
    elapsed = time.perf_counter() - start
    if telemetry is not None:
        telemetry.close()
    return elapsed, result


def test_streaming_overhead_under_ceiling(grid_tasks, tmp_path,
                                          manifest_dir):
    def streamed(rep):
        lane = tmp_path / f"rep{rep}" / "main.events.jsonl"
        return Telemetry.armed(
            simulator_counters=True,
            stream=EventWriter(lane, lane="main"),
        )

    manifest = _begin_manifest(manifest_dir)
    bare_samples, streamed_samples = [], []
    for rep in range(REPS):
        elapsed, bare_result = _run(grid_tasks, None)
        bare_samples.append(elapsed)
        telemetry = streamed(rep)
        elapsed, streamed_result = _run(grid_tasks, telemetry)
        streamed_samples.append(elapsed)
    if manifest is not None:
        _emit_manifest(manifest, manifest_dir, telemetry)
    bare_median = statistics.median(bare_samples)
    streamed_median = statistics.median(streamed_samples)

    # Streaming is observational: the science is bit-identical.
    assert [s.cycles for s in streamed_result] \
        == [s.cycles for s in bare_result]

    # The armed lane really recorded the run.
    lane = tmp_path / f"rep{REPS - 1}" / "main.events.jsonl"
    assert lane.stat().st_size > 0

    budget = bare_median * OVERHEAD_CEILING + SLACK_SECONDS
    print(f"\nbare: {bare_median:.3f}s   "
          f"streamed: {streamed_median:.3f}s   "
          f"ratio: {streamed_median / bare_median:.3f}x   "
          f"budget: {budget:.3f}s")
    assert streamed_median <= budget, (
        f"streaming overhead {streamed_median:.3f}s exceeds "
        f"{bare_median:.3f}s * {OVERHEAD_CEILING} + {SLACK_SECONDS}s"
    )


def _begin_manifest(manifest_dir):
    if not manifest_dir:
        return None
    from repro.obs import RunManifest, config_fingerprint

    return RunManifest(
        command="bench:obs_overhead",
        fingerprint=config_fingerprint({
            "label": "obs_overhead", "bench": BENCH,
            "length": LENGTH, "tasks": TASKS,
        }),
        settings={"reps": REPS, "length": LENGTH, "tasks": TASKS},
        workload={"bench": BENCH, "length": LENGTH, "tasks": TASKS},
        fault_spec=os.environ.get("REPRO_FAULT_SPEC"),
    )


def _emit_manifest(manifest, manifest_dir, telemetry):
    from repro.obs import write_metrics_jsonl

    out = Path(manifest_dir)
    metrics_path = out / "BENCH_obs_overhead.metrics.jsonl"
    write_metrics_jsonl(telemetry.metrics, metrics_path)
    manifest.artifacts["metrics"] = str(metrics_path)
    manifest.finalize(metrics=telemetry.snapshot())
    manifest.write(out / "BENCH_obs_overhead.json")
