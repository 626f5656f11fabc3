"""End-to-end core-equivalence acceptance (ISSUE 6).

The full 88-configuration Plackett-Burman screen, run through the real
CLI on the batched core with the whole guard/obs stack armed — two
workers, result cache, checkpoint journal, re-execution audit, Chrome
trace, manifest — must produce a sealed ``results.json`` that is
**byte-identical** to the one the interpreted reference core seals for
the same workload.  Not statistically close: the same file.

These are the slowest tests in tier 1 (two full screens plus a cached
re-run), so the workload is kept small; the differential sweep in
``tests/cpu/test_batched.py`` covers breadth, this covers depth.
"""

import json

import pytest

from repro.cli import main
from repro.exec import Journal
from repro.exec.cache import SEGMENT_NAME

#: Small but real: 88 configurations x 2 benchmarks.
WORKLOAD = ["-b", "gzip,mcf", "-n", "500"]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The sealed oracle: a reference-core screen under --run-dir."""
    run_dir = tmp_path_factory.mktemp("screen-reference")
    assert main(["screen", *WORKLOAD, "--core", "reference",
                 "--run-dir", str(run_dir),
                 "--cache-dir", str(run_dir / "cache")]) == 0
    return run_dir


@pytest.fixture(scope="module")
def batched_run(tmp_path_factory):
    """The run under test: batched core, jobs=2, journal + trace +
    manifest armed via --run-dir and a cache in it via --cache-dir,
    then a second pass over the same run directory with a
    re-execution audit over the restored cells."""
    run_dir = tmp_path_factory.mktemp("screen-batched")
    trace = run_dir / "events.trace.json"
    cache = ["--cache-dir", str(run_dir / "cache")]
    assert main(["screen", *WORKLOAD, "--core", "batched",
                 "--jobs", "2", "--trace", str(trace),
                 "--run-dir", str(run_dir), *cache]) == 0
    assert main(["screen", *WORKLOAD, "--core", "batched",
                 "--jobs", "2", "--audit", "0.25",
                 "--run-dir", str(run_dir), *cache]) == 0
    return run_dir


class TestBitIdenticalResults:
    def test_sealed_results_byte_identical(self, reference_run,
                                           batched_run):
        reference = (reference_run / "results.json").read_bytes()
        batched = (batched_run / "results.json").read_bytes()
        assert reference == batched

    def test_both_runs_verify_clean(self, reference_run, batched_run):
        for run_dir in (reference_run, batched_run):
            assert main(["verify", str(run_dir)]) == 0

    def test_artifacts_are_armed(self, batched_run):
        assert (batched_run / "journal.jsonl").exists()
        assert (batched_run / "cache").is_dir()
        assert (batched_run / "events.trace.json").exists()
        manifest = json.loads(
            (batched_run / "manifest.json").read_text()
        )
        assert manifest["run"]["settings"]["core"] == "batched"
        assert manifest["run"]["settings"]["jobs"] == 2

    def test_audit_pass_ran_over_restored_cells(self, batched_run):
        """The second screen restored every cell from journal/cache
        and the audit re-executed a sample of them cleanly (a
        violation would have failed the run with AuditMismatch)."""
        metrics = {}
        for line in (batched_run / "metrics.jsonl") \
                .read_text().splitlines():
            record = json.loads(line)
            metrics[record["name"]] = record
        assert metrics["audit.selected"]["value"] > 0
        assert metrics["audit.passed"]["value"] == \
            metrics["audit.selected"]["value"]
        assert metrics["audit.violations"]["value"] == 0

    def test_cache_segregates_core_families(self, reference_run,
                                            batched_run):
        """The two run directories cache under disjoint keys: the
        reference oracle's entries must never be confused with the
        batched core's (equal *content* is the theorem being tested,
        not an excuse to share storage)."""
        ref_keys = set(Journal(reference_run / "cache" / SEGMENT_NAME)
                       .keys())
        bat_keys = set(Journal(batched_run / "cache" / SEGMENT_NAME)
                       .keys())
        assert ref_keys and bat_keys
        assert not ref_keys & bat_keys
