"""Seed derivation and a tiny-scale run of every screen workload."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import benchmark_trace

import screenbench

ROOT = Path(__file__).resolve().parents[2]

#: Table 5 lengths floor at 1000 instructions, so this is 1000 each.
TINY_SCALE = 0.2


def test_seed_zero_reproduces_benchmark_trace():
    traces = screenbench.seeded_traces(0)
    assert list(traces) == screenbench.BENCHMARK_NAMES
    for name in ("gzip", "mcf"):
        assert traces[name].fingerprint() == \
            benchmark_trace(name).fingerprint()


def test_other_seeds_change_every_trace_but_not_its_length():
    zero = screenbench.seeded_traces(0, TINY_SCALE)
    one = screenbench.seeded_traces(1, TINY_SCALE)
    again = screenbench.seeded_traces(1, TINY_SCALE)
    for name in zero:
        assert len(one[name]) == len(zero[name]) == 1000
        assert one[name].fingerprint() != zero[name].fingerprint()
        assert one[name].fingerprint() == again[name].fingerprint()


def test_unshared_traces_share_arrays_but_not_memos():
    traces = screenbench.seeded_traces(2, TINY_SCALE)
    for trace in traces.values():
        trace.decoded()
    copies = screenbench.unshared(traces)
    for name, trace in traces.items():
        copy = copies[name]
        assert copy is not trace and copy.name == trace.name
        assert copy._decoded is None and copy._fingerprint is None
        for field in screenbench.TRACE_ARRAYS:
            assert getattr(copy, field) is getattr(trace, field)
        assert copy.fingerprint() == trace.fingerprint()


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declares_the_measured_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(screenbench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(screenbench.WORKLOADS))
def test_tiny_run_checks_outputs_and_closes_the_ledger(workload, tmp_path):
    common = dict(root=ROOT, import_s=0.0, scale=TINY_SCALE, min_reps=1)
    plain = screenbench.run_benchmark(workload, 3, 0, False, **common)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] == 88 * 13
    assert _units(plain) == _declared("end_to_end")
    assert plain["metrics"]["cell_success_share"]["value"] == 1.0

    trace_path = tmp_path / "trace.json"
    traced = screenbench.run_benchmark(workload, 3, 0, True,
                                       trace_path=trace_path, **common)
    assert _units(traced) == _declared("per_layer")
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert trace_path.stat().st_size > 0
    assert layers["cpu.sim.instructions"] == 88 * 13 * 1000
    serial = workload == "screen-serial"
    assert layers["cpu.cells"] == 88 * 13
    assert layers["exec.task_keys"] == (0 if serial else 88 * 13)
    assert layers["exec.journal.records"] == (0 if serial else 88 * 13)
    assert (layers["exec.pool.cell_ms_p50"] > 0) == (not serial)
    # Simulation time is only the parent's own: 0 on the pool path.
    for name in ("cpu.simulate_s", "cpu.cell_ms_p50", "cpu.cell_ms_p99",
                 "cpu.host_ns_per_instr"):
        assert (layers[name] > 0) == serial, name
    ledger_rows = ("workloads.decode_s", "workloads.fingerprint_s",
                   "exec.task_key_s", "exec.cache.get_s",
                   "exec.cache.put_s", "exec.journal.get_s",
                   "exec.journal.record_s", "exec.progress_s",
                   "obs.stream.append_s", "cpu.simulate_s",
                   "core.analyze_s", "guard.write_results_s",
                   "exec.pool.wait_s", "exec.engine.other_s")
    assert sum(layers[r] for r in ledger_rows) == \
        pytest.approx(layers["trace.screen_s"], rel=1e-9)
    assert not (ROOT / ".bench_build" / "work" / f"{workload}-3").exists()


def test_refuses_to_measure_without_the_compiled_kernel():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "screen-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "REPRO_NATIVE": "0"})
    assert done.returncode == 3
    assert done.stdout == ""
    assert "REPRO_NATIVE=0" in done.stderr


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "screen-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
