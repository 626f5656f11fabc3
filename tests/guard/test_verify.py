"""Tests for ``repro verify`` (repro.guard.verify) and the
``--run-dir`` screen convenience that feeds it."""

import json
import shutil

import pytest

from repro.cli import main
from repro.cpu import SIMULATOR_VERSION
from repro.guard import SealCorrupt, check as guard_check
from repro.guard.verify import (
    RESULTS_KIND,
    RESULTS_SCHEMA,
    load_results,
    verify_run,
)

BENCH, LENGTH = "gzip", 600


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One finished, verifiable screen run (88 x 1 cells), with a
    result cache pointed into its run dir."""
    directory = tmp_path_factory.mktemp("runs") / "screen"
    status = main(["screen", "-b", BENCH, "-n", str(LENGTH),
                   "--run-dir", str(directory),
                   "--cache-dir", str(directory / "cache")])
    assert status == 0
    return directory


@pytest.fixture()
def copy(run_dir, tmp_path):
    """A private mutable copy of the finished run."""
    target = tmp_path / "run"
    shutil.copytree(run_dir, target)
    return target


def damage_segment_line(run_dir, index, edit):
    """Apply ``edit`` to line ``index`` of the run's cache segment."""
    segment = run_dir / "cache" / "segment.jsonl"
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    segment.write_bytes(b"".join(lines))


def flip_byte(line):
    blob = bytearray(line)
    blob[-30] ^= 0xFF
    return bytes(blob)


class TestGcKeepsAVerifiedRun:
    def test_run_recorded_under_an_earlier_simulator(self, copy,
                                                     monkeypatch):
        # The simulator has moved on since the run was recorded.
        # verify loads the journal at the manifest's version, so
        # compaction must judge it there too: every cell survives.
        import repro.cpu
        import repro.guard.retention as retention

        monkeypatch.setattr(repro.cpu, "SIMULATOR_VERSION", "next")
        monkeypatch.setattr(retention, "SIMULATOR_VERSION", "next")
        journal = (copy / "journal.jsonl").read_bytes()
        report = retention.gc_run_dir(copy, compact=True)
        assert (copy / "journal.jsonl").read_bytes() == journal
        assert str(copy / "journal.jsonl") not in report.dropped
        assert verify_run(copy).status == 0


class TestRunDirLayout:
    def test_all_artifacts_written(self, run_dir):
        for name in ("manifest.json", "journal.jsonl", "metrics.jsonl",
                     "results.json", "cache"):
            assert (run_dir / name).exists(), name

    def test_bare_run_dir_writes_no_cache(self, tmp_path):
        # The journal is a run dir's only result store.
        directory = tmp_path / "bare"
        assert main(["screen", "-b", BENCH, "-n", str(LENGTH),
                     "--run-dir", str(directory)]) == 0
        assert (directory / "journal.jsonl").exists()
        assert not (directory / "cache").exists()
        assert verify_run(directory).status == 0

    def test_results_document_is_sealed(self, run_dir):
        payload = guard_check(
            (run_dir / "results.json").read_bytes(),
            kind=RESULTS_KIND, schema=RESULTS_SCHEMA,
            simulator_version=SIMULATOR_VERSION,
        )
        doc = json.loads(payload)
        assert doc["design"]["n_runs"] == 88
        assert set(doc["responses"]) == {BENCH}
        assert doc["ranking"]["factors"]
        assert load_results(run_dir / "results.json") == doc

    def test_manifest_records_workload(self, run_dir):
        from repro.obs import load_manifest

        doc = load_manifest(run_dir / "manifest.json")
        assert doc["run"]["workload"] == {
            "benchmarks": BENCH, "length": LENGTH,
        }


class TestCleanVerify:
    def test_status_zero_all_checks_pass(self, run_dir):
        report = verify_run(run_dir)
        assert [c.name for c in report.checks if c.ok is not True] == []
        assert report.status == 0

    def test_cli_exit_zero(self, run_dir, capsys):
        assert main(["verify", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED: all artifacts agree" in out
        assert "recompute:gzip" in out

    def test_rerun_with_run_dir_resumes_and_stays_clean(self, copy,
                                                        capsys):
        # --run-dir implies --resume on its own journal: the rerun
        # costs zero simulations and rewrites identical artifacts.
        assert main(["screen", "-b", BENCH, "-n", str(LENGTH),
                     "--run-dir", str(copy)]) == 0
        assert verify_run(copy).status == 0

    def test_crash_mid_append_then_resume_verifies(self, copy):
        # A crash cut the last journal line in half; the resumed
        # screen re-records that cell over the torn tail, and the
        # residue must not survive as mid-file damage.
        journal = copy / "journal.jsonl"
        data = journal.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        journal.write_bytes(data[:last + (len(data) - last) // 2])
        with pytest.warns(RuntimeWarning, match="torn: 1"):
            assert main(["screen", "-b", BENCH, "-n", str(LENGTH),
                         "--run-dir", str(copy), "--resume"]) == 0
        report = verify_run(copy)
        assert [c.describe() for c in report.checks
                if c.ok is not True] == []
        assert report.status == 0


class TestViolations:
    def test_corrupt_journal_line_names_the_file(self, copy, capsys):
        journal = copy / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"sha": "', b'"sha": "f')
        journal.write_bytes(b"".join(lines))
        assert main(["verify", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "journal.jsonl" in out and "checksum" in out

    def test_corrupt_cache_entry_names_the_directory(self, copy,
                                                     capsys):
        damage_segment_line(copy, 0, flip_byte)
        assert main(["verify", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "cache" in out and "dropped 1 invalid" in out

    def test_both_corruptions_both_named(self, copy, capsys):
        journal = copy / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"sha": "', b'"sha": "f')
        journal.write_bytes(b"".join(lines))
        damage_segment_line(copy, 1, lambda line: line[:-10] + b"\n")
        assert main(["verify", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "journal.jsonl" in out
        assert str(copy / "cache") in out

    def test_tampered_results_seal(self, copy):
        results = copy / "results.json"
        blob = bytearray(results.read_bytes())
        blob[-2] ^= 0xFF
        results.write_bytes(bytes(blob))
        report = verify_run(copy)
        assert report.status == 1
        failing = {c.name for c in report.violations}
        assert failing == {"results"}

    def test_doctored_results_caught_by_recompute(self, copy):
        # Re-seal the document honestly but with one response value
        # altered: only the recomputation can catch this.
        from repro.guard import seal as make_seal

        doc = load_results(copy / "results.json")
        doc["responses"][BENCH][17] += 1.0
        (copy / "results.json").write_bytes(make_seal(
            json.dumps(doc).encode(), kind=RESULTS_KIND,
            schema=RESULTS_SCHEMA, simulator_version=SIMULATOR_VERSION,
        ))
        report = verify_run(copy)
        assert report.status == 1
        failing = {c.name for c in report.violations}
        assert f"recompute:{BENCH}" in failing

    def test_doctored_ranking_caught(self, copy):
        from repro.guard import seal as make_seal

        doc = load_results(copy / "results.json")
        doc["ranking"]["sums"][0] += 2
        (copy / "results.json").write_bytes(make_seal(
            json.dumps(doc).encode(), kind=RESULTS_KIND,
            schema=RESULTS_SCHEMA, simulator_version=SIMULATOR_VERSION,
        ))
        report = verify_run(copy)
        assert report.status == 1
        assert "rank-sums" in {c.name for c in report.violations}

    def test_edited_manifest_detected(self, copy):
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["run"]["workload"]["length"] = 99999
        manifest.write_text(json.dumps(doc))
        report = verify_run(copy)
        assert report.status == 1
        assert report.checks[0].name == "manifest"
        assert report.checks[0].ok is False


class TestEventLogCheck:
    """Step 4c: the live event log is audited alongside the journal."""

    def test_clean_run_reports_lanes_intact(self, run_dir, capsys):
        assert (run_dir / "stream" / "main.events.jsonl").exists()
        report = verify_run(run_dir)
        (check,) = [c for c in report.checks if c.name == "event-log"]
        assert check.ok is True
        assert "records intact" in check.detail
        assert main(["verify", str(run_dir)]) == 0
        assert "event-log" in capsys.readouterr().out

    def test_torn_tail_is_tolerated(self, copy):
        lane = copy / "stream" / "main.events.jsonl"
        with open(lane, "ab") as handle:
            handle.write(b'{"v": 1, "lane": "main", "seq"')  # no \n
        report = verify_run(copy)
        (check,) = [c for c in report.checks if c.name == "event-log"]
        assert check.ok is True
        assert "torn tail tolerated on main" in check.detail
        assert report.status == 0

    def test_midfile_damage_is_a_violation(self, copy, capsys):
        lane = copy / "stream" / "main.events.jsonl"
        lines = lane.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"sha":"', b'"sha":"f')
        lane.write_bytes(b"".join(lines))
        assert main(["verify", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "main.events.jsonl line 2: checksum" in out

    def test_event_log_damage_joins_other_findings(self, copy):
        lane = copy / "stream" / "main.events.jsonl"
        lines = lane.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"garbage\n")
        lane.write_bytes(b"".join(lines))
        journal = copy / "journal.jsonl"
        jlines = journal.read_bytes().splitlines(keepends=True)
        jlines[2] = jlines[2].replace(b'"sha": "', b'"sha": "f')
        journal.write_bytes(b"".join(jlines))
        report = verify_run(copy)
        assert report.status == 1
        failing = {c.name for c in report.violations}
        assert {"event-log", "journal"} <= failing


class TestInconclusive:
    def test_empty_directory(self, tmp_path):
        report = verify_run(tmp_path)
        assert report.status == 2
        assert report.inconclusive

    def test_missing_results_document(self, copy):
        (copy / "results.json").unlink()
        report = verify_run(copy)
        assert report.status == 2
        names = {c.name for c in report.inconclusive}
        assert "results" in names

    def test_missing_journal(self, copy):
        (copy / "journal.jsonl").unlink()
        report = verify_run(copy)
        assert report.status == 2

    def test_violation_outranks_missing_evidence(self, copy):
        (copy / "results.json").unlink()
        damage_segment_line(copy, 0, lambda line: b"junk\n")
        report = verify_run(copy)
        assert report.status == 1


class TestResultsHelpers:
    def test_load_results_raises_on_wrong_kind(self, tmp_path):
        from repro.guard import seal as make_seal

        path = tmp_path / "results.json"
        path.write_bytes(make_seal(b"{}", kind="other", schema=1))
        with pytest.raises(SealCorrupt):
            load_results(path)


class TestSpoolChecks:
    """``verify_run`` over a distributed run directory (step 4b)."""

    def _spool(self, run_dir):
        from repro.dist.spool import Spool
        from repro.exec import Journal

        spool = Spool(run_dir / "spool", version=SIMULATOR_VERSION)
        spool.ensure()
        journal = Journal(run_dir / "journal.jsonl")
        key = next(iter(journal.keys()))
        return spool, key, journal.get(key)

    def test_absent_spool_adds_no_checks(self, copy):
        report = verify_run(copy)
        assert report.status == 0
        assert not any(c.name.startswith("spool")
                       for c in report.checks)

    def test_agreeing_spool_passes(self, copy):
        spool, key, stats = self._spool(copy)
        spool.write_result(key, index=0, attempt=0, worker="w1",
                           ok=True, stats=stats)
        report = verify_run(copy)
        assert report.status == 0
        by_name = {c.name: c for c in report.checks}
        assert by_name["spool"].ok is True
        assert "1 sealed worker results" in by_name["spool"].detail
        assert by_name["spool-drained"].ok is True

    def test_torn_spool_result_is_violation(self, copy):
        spool, key, stats = self._spool(copy)
        spool.write_result(key, index=0, attempt=0, worker="w1",
                           ok=True, stats=stats)
        path = spool.result_path(key)
        path.write_bytes(path.read_bytes()[:-5])
        report = verify_run(copy)
        assert report.status == 1
        assert any(c.name == "spool" and c.ok is False
                   for c in report.checks)

    def test_disagreeing_spool_result_is_violation(self, copy):
        import dataclasses

        spool, key, stats = self._spool(copy)
        doctored = dataclasses.replace(stats, cycles=stats.cycles + 1)
        spool.write_result(key, index=0, attempt=0, worker="w1",
                           ok=True, stats=doctored)
        report = verify_run(copy)
        assert report.status == 1
        bad = [c for c in report.checks
               if c.name == "spool-agreement" and c.ok is False]
        assert bad and "cycles" in bad[0].detail

    def test_error_results_are_not_violations(self, copy):
        spool, key, _stats = self._spool(copy)
        spool.write_result(key, index=0, attempt=0, worker="w1",
                           ok=False, error_type="InjectedFault",
                           message="scripted")
        report = verify_run(copy)
        assert report.status == 0

    def test_inflight_tickets_are_inconclusive(self, copy):
        spool, key, _stats = self._spool(copy)
        spool.publish_task(key, 0, 0, None)
        report = verify_run(copy)
        assert report.status == 2
        stuck = [c for c in report.checks if c.name == "spool-drained"]
        assert stuck[0].ok is None
