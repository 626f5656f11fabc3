"""Chaos acceptance: the full 88-run screen survives real crashes.

The distributed grid's headline claim, proven end to end through the
real CLI with real OS processes: a broker plus three workers — two of
them scheduled to die mid-task (``os._exit``), one to stall past the
heartbeat grace — and a scripted broker crash partway through the
harvest, must still seal a ``results.json`` **byte-identical** to a
quiet single-host screen of the same workload, and the distributed
run directory must pass ``repro verify`` end to end.

This is the distributed counterpart of
``tests/test_acceptance_cores.py`` and, like it, trades workload size
for depth: the full foldover design, small traces.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.dist.broker import CHAOS_EXIT_CODE
from repro.guard.faults import KILL_EXIT_CODE

#: Small but real: 88 configurations x 2 benchmarks = 176 cells.
WORKLOAD = ["-b", "gzip,mcf", "-n", "500"]

#: One fault schedule per worker: whichever worker claims the named
#: cell on its first attempt fires the fault.  Two process kills and
#: one two-second stall (heartbeat silence >> the 0.5 s grace).
WORKER_FAULTS = ["kill:7", "kill:41", "stall:100:1:2.0"]


def _env(fault_spec=None):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p]
    )
    if fault_spec is not None:
        env["REPRO_FAULT_SPEC"] = fault_spec
    else:
        env.pop("REPRO_FAULT_SPEC", None)
    return env


def _spawn_worker(spool, name, fault_spec):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", str(spool),
         "--worker-id", name, "--poll", "0.02",
         "--heartbeat-interval", "0.05", "--max-idle", "120"],
        env=_env(fault_spec),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The sealed oracle: a quiet single-host screen."""
    run_dir = tmp_path_factory.mktemp("dist-reference")
    assert main(["screen", *WORKLOAD, "--run-dir", str(run_dir)]) == 0
    return run_dir


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """The run under test: broker + 3 faulty workers + broker crash.

    Broker one is scripted (``REPRO_FAULT_SPEC=crash:30``) to die
    after 30 harvested results; broker two resumes the same run directory
    and spool and must finish the screen from sealed state alone.
    Streaming is armed throughout (``--run-dir`` streams by default)
    and broker two also profiles, so the byte-identity claim below
    covers the full observability stack.
    """
    run_dir = tmp_path_factory.mktemp("dist-chaos")
    spool = run_dir / "spool"
    profile_dir = run_dir / "profile"
    workers = [_spawn_worker(spool, f"chaos-w{n}", spec)
               for n, spec in enumerate(WORKER_FAULTS)]
    screen = ["screen", *WORKLOAD, "--run-dir", str(run_dir),
              "--dist", str(spool), "--on-error", "skip",
              "--dist-heartbeat-grace", "0.5",
              "--dist-attach-grace", "30"]
    try:
        crashed = subprocess.run(
            [sys.executable, "-m", "repro", *screen],
            env=_env("crash:30"), timeout=600,
            stdout=subprocess.DEVNULL,
        )
        # Mid-run, post-crash: the fleet view must work against the
        # live spool while the (orphaned) workers are still attached.
        top_mid = subprocess.run(
            [sys.executable, "-m", "repro", "top", str(spool),
             "--once"],
            env=_env(), timeout=120, capture_output=True, text=True,
        )
        # The second broker runs in-process: resumption must need
        # nothing but the on-disk spool + journal.
        resumed = main(screen + ["--profile", str(profile_dir)])
    finally:
        for proc in workers:
            try:
                proc.wait(timeout=180)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return {
        "run_dir": run_dir,
        "spool": spool,
        "profile_dir": profile_dir,
        "crashed_rc": crashed.returncode,
        "resumed_rc": resumed,
        "worker_rcs": [proc.returncode for proc in workers],
        "top_mid_rc": top_mid.returncode,
        "top_mid_out": top_mid.stdout,
    }


class TestChaosScript:
    def test_first_broker_crashed_on_schedule(self, chaos_run):
        assert chaos_run["crashed_rc"] == CHAOS_EXIT_CODE

    def test_second_broker_finished_the_screen(self, chaos_run):
        assert chaos_run["resumed_rc"] == 0

    def test_workers_exited_cleanly_or_were_killed(self, chaos_run):
        # A worker either drains normally (0) or dies to its scheduled
        # kill fault (87); nothing may crash any other way.  The stall
        # worker always survives its hang.
        assert all(rc in (0, KILL_EXIT_CODE)
                   for rc in chaos_run["worker_rcs"])
        assert chaos_run["worker_rcs"][2] == 0


class TestBitIdenticalUnderChaos:
    def test_sealed_results_byte_identical(self, reference_run,
                                           chaos_run):
        reference = (reference_run / "results.json").read_bytes()
        chaotic = (chaos_run["run_dir"] / "results.json").read_bytes()
        assert reference == chaotic

    def test_no_cell_was_skipped(self, chaos_run):
        # --on-error skip was armed, but every fault is recoverable:
        # the sealed grid must be complete, not merely consistent.
        results = (chaos_run["run_dir"] / "results.json").read_text()
        assert "null" not in results


class TestFleetObservabilityUnderChaos:
    """The tentpole's acceptance surface: top, export and profiling
    against the same chaotic run that proved byte-identity."""

    def test_top_once_mid_run_saw_the_fleet(self, chaos_run):
        import json

        assert chaos_run["top_mid_rc"] == 0
        doc = json.loads(chaos_run["top_mid_out"])
        workers = {view["worker"] for view in doc["workers"]}
        assert any(name.startswith("chaos-w") for name in workers)

    def test_top_once_post_run_reports_completion(self, chaos_run,
                                                  capsys):
        import json

        assert main(["top", str(chaos_run["run_dir"]),
                     "--once"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["progress"]["done"] == doc["progress"]["total"] \
            == 176
        assert "main" in doc["lanes"]
        assert any(name.startswith("chaos-w")
                   for name in doc["lanes"])

    def test_main_lane_records_both_broker_generations(self,
                                                       chaos_run):
        from repro.obs.stream import scan_stream

        lane = chaos_run["run_dir"] / "stream" / "main.events.jsonl"
        scan = scan_stream(lane)
        assert scan.damage == ()
        assert len(scan.generations()) == 2
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "completed"

    def test_obs_export_prometheus(self, chaos_run, capsys):
        assert main(["obs", "export", str(chaos_run["run_dir"]),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_tasks_completed_total counter" in out
        assert "repro_progress_done" in out

    def test_obs_export_perfetto(self, chaos_run, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["obs", "export", str(chaos_run["run_dir"]),
                     "--format", "perfetto", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        threads = {e["args"]["name"] for e in doc["traceEvents"]
                   if e.get("name") == "thread_name"}
        assert "main" in threads
        assert any(name.startswith("chaos-w") for name in threads)

    def test_profile_artifacts_captured_and_recorded(self, chaos_run):
        from repro.obs import load_manifest

        captures = sorted(
            p.name for p in chaos_run["profile_dir"].glob("*.pstats"))
        assert captures  # broker two profiled its phases
        doc = load_manifest(chaos_run["run_dir"] / "manifest.json")
        artifacts = doc["run"]["artifacts"]
        assert any(key.startswith("profile.") for key in artifacts)
        assert artifacts["stream"] == str(
            chaos_run["run_dir"] / "stream")


class TestVerifyUnderChaos:
    def test_chaos_run_verifies_end_to_end(self, chaos_run):
        assert main(["verify", str(chaos_run["run_dir"])]) == 0

    def test_explicit_spool_flag(self, chaos_run):
        assert main(["verify", str(chaos_run["run_dir"]),
                     "--spool", str(chaos_run["spool"])]) == 0

    def test_spool_was_drained(self, chaos_run):
        spool = chaos_run["spool"]
        assert (spool / "drain").exists()
        assert not list((spool / "pending").glob("*.task"))
        assert not list((spool / "leased").glob("*.task"))
