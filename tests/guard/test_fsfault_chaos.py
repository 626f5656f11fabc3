"""Chaos acceptance for the I/O fault layer: the 88-run screen
survives scheduled disk faults.

Three end-to-end scenarios against the full 88-configuration
Plackett–Burman screen, each proving one leg of the degradation
contract through the real CLI:

* **transient fault window** (``enospc:10:3,rename:0:2``): the
  write window covers exactly the three append attempts of the first
  cache put (a ``--cache-dir`` segment), which rolls back and flips
  the cache's "writes are down" switch — degrade loudly — while the
  journal append right after it lands; the rename window fails the
  first two attempts of the sealed ``results.json`` publish, which
  rides it out on its retry budget.  The run exits 0 in one go, byte-identical to a quiet
  screen, and ``repro verify`` passes with the cache segment empty.
* **persistent outage** (``enospc:0:always``): the disk never comes
  back, the journal's retry budget exhausts and the run fails
  *loudly and atomically* — no torn artifact, no temp residue, an
  empty journal.  A clean rerun on the same run directory completes
  byte-identically: faults cleared, nothing poisoned.
* **distributed worker under fault**: one worker runs its whole life
  under ``REPRO_FAULT_SPEC`` transient windows; its spool publishes ride the
  retry budget and the screen completes byte-identically.

The byte-identity oracle is the same quiet single-host screen used
by ``tests/dist/test_chaos_acceptance.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: The paper's 88-run foldover design over one benchmark: 88 cells.
WORKLOAD = ["-b", "gzip", "-n", "400"]

#: A serial run-dir screen's first ten writes are event-log lines;
#: write 10 is the first cache append.  The write window spans that
#: put's three attempts (the journal's retry budget, which the
#: cache's segment append shares), so the cache degrades and the
#: journal append at write 13 lands.  Renames 0 and 1 are the first
#: two attempts of the results.json publish, which has three
#: (retries=2), so it survives them.  The run completes in one go.
TRANSIENT_SPEC = "enospc:10:3,rename:0:2"

#: The disk never recovers: the run must die loudly, not wedge.
OUTAGE_SPEC = "enospc:0:always"

#: A faulted dist worker: early ENOSPC and rename windows, all
#: narrower than the spool's publish retry budget.
WORKER_SPEC = "enospc:5:2,rename:3:2"


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


def _screen(run_dir, *extra):
    return [sys.executable, "-m", "repro", "screen", *WORKLOAD,
            "--run-dir", str(run_dir), *extra]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The sealed oracle: a quiet fault-free screen."""
    run_dir = tmp_path_factory.mktemp("diskfault-reference")
    assert main(["screen", *WORKLOAD, "--run-dir", str(run_dir)]) == 0
    return run_dir


@pytest.fixture(scope="module")
def faulted_run(tmp_path_factory):
    """One screen straight through a transient fault window."""
    run_dir = tmp_path_factory.mktemp("diskfault-transient")
    proc = subprocess.run(
        _screen(run_dir, "--cache-dir", str(run_dir / "cache")),
        env=_env(TRANSIENT_SPEC), timeout=300,
        capture_output=True, text=True,
    )
    return {"run_dir": run_dir, "rc": proc.returncode,
            "stderr": proc.stderr}


@pytest.fixture(scope="module")
def outage_run(tmp_path_factory):
    """A permanent outage, then the same run dir rerun clean."""
    run_dir = tmp_path_factory.mktemp("diskfault-outage")
    crashed = subprocess.run(
        _screen(run_dir), env=_env(OUTAGE_SPEC), timeout=300,
        capture_output=True, text=True,
    )
    journal = run_dir / "journal.jsonl"
    state = {
        "run_dir": run_dir,
        "crashed_rc": crashed.returncode,
        "crashed_stderr": crashed.stderr,
        "results_after_crash": (run_dir / "results.json").exists(),
        "journal_bytes_after_crash": (
            journal.stat().st_size if journal.exists() else 0),
        "residue_after_crash": [
            str(p) for p in run_dir.rglob("*.tmp-*")],
    }
    # Space restored: the rerun sees the same run dir, no spec.
    rerun = subprocess.run(
        _screen(run_dir), env=_env(), timeout=300,
        capture_output=True, text=True,
    )
    state["rerun_rc"] = rerun.returncode
    return state


@pytest.fixture(scope="module")
def dist_faulted_run(tmp_path_factory):
    """Broker in-process, one dist worker under ``REPRO_FAULT_SPEC``."""
    run_dir = tmp_path_factory.mktemp("diskfault-dist")
    spool = run_dir / "spool"
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", str(spool),
         "--worker-id", "diskfault-w0", "--poll", "0.02",
         "--heartbeat-interval", "0.05", "--max-idle", "120"],
        env=_env(WORKER_SPEC), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        broker_rc = main(["screen", *WORKLOAD,
                          "--run-dir", str(run_dir),
                          "--dist", str(spool),
                          "--dist-attach-grace", "30"])
    finally:
        try:
            worker.wait(timeout=180)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
    return {"run_dir": run_dir, "spool": spool,
            "broker_rc": broker_rc, "worker_rc": worker.returncode}


class TestTransientWindow:
    def test_run_completed_in_one_go(self, faulted_run):
        assert faulted_run["rc"] == 0

    def test_cache_degraded_loudly(self, faulted_run, reference_run):
        # The window swallowed the first cache put (rolled back to
        # zero bytes); the switch stopped the rest.  The journal
        # persisted all 88 cells.
        run_dir = faulted_run["run_dir"]
        assert "cache writes failing" in faulted_run["stderr"]
        assert (run_dir / "cache" / "segment.jsonl").read_bytes() == b""
        assert len((run_dir / "journal.jsonl").read_bytes()
                   .splitlines()) == 88

    def test_put_failures_surfaced_in_metrics(self, faulted_run,
                                              capsys):
        assert main(["obs", "export", str(faulted_run["run_dir"]),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_cache_put_failures_total 1" in out

    def test_fault_spec_recorded_in_manifest(self, faulted_run):
        doc = json.loads(
            (faulted_run["run_dir"] / "manifest.json").read_text())
        assert doc["run"]["fault_spec"] == TRANSIENT_SPEC
        assert "fsfault" not in doc["run"]["settings"]

    def test_results_byte_identical(self, faulted_run, reference_run):
        assert (faulted_run["run_dir"] / "results.json").read_bytes() \
            == (reference_run / "results.json").read_bytes()

    def test_verify_passes(self, faulted_run):
        assert main(["verify", str(faulted_run["run_dir"])]) == 0


class TestPersistentOutage:
    def test_crash_was_loud(self, outage_run):
        assert outage_run["crashed_rc"] != 0
        assert "ENOSPC" in outage_run["crashed_stderr"]

    def test_crash_was_atomic(self, outage_run):
        # No sealed artifact appeared, every journal append rolled
        # back to zero bytes, and no publish left a temp file behind.
        assert not outage_run["results_after_crash"]
        assert outage_run["journal_bytes_after_crash"] == 0
        assert outage_run["residue_after_crash"] == []

    def test_rerun_after_space_restored_completes(self, outage_run):
        assert outage_run["rerun_rc"] == 0

    def test_results_byte_identical(self, outage_run, reference_run):
        assert (outage_run["run_dir"] / "results.json").read_bytes() \
            == (reference_run / "results.json").read_bytes()

    def test_verify_passes(self, outage_run):
        assert main(["verify", str(outage_run["run_dir"])]) == 0


class TestDistWorkerUnderFault:
    def test_broker_and_worker_completed(self, dist_faulted_run):
        assert dist_faulted_run["broker_rc"] == 0
        assert dist_faulted_run["worker_rc"] == 0

    def test_spool_drained(self, dist_faulted_run):
        spool = dist_faulted_run["spool"]
        assert (spool / "drain").exists()
        assert not list((spool / "pending").glob("*.task"))
        assert not list((spool / "leased").glob("*.task"))

    def test_results_byte_identical(self, dist_faulted_run,
                                    reference_run):
        chaotic = dist_faulted_run["run_dir"] / "results.json"
        assert chaotic.read_bytes() \
            == (reference_run / "results.json").read_bytes()

    def test_verify_passes(self, dist_faulted_run):
        assert main(["verify", str(dist_faulted_run["run_dir"])]) == 0
