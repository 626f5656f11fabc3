"""Tests for :class:`repro.exec.ExecOptions`, the engine's one options
value: normalization, validation and the resolved defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.dist import DistOptions
from repro.exec import (
    ExecOptions,
    Journal,
    ResultCache,
    RetryPolicy,
    grid_tasks,
    run_grid,
)
from repro.exec.fault import DEFAULT_RETRY_POLICY, NO_RETRY_POLICY
from repro.guard import AuditPolicy
from repro.workloads import benchmark_trace


class TestNormalization:
    def test_defaults(self):
        options = ExecOptions()
        assert options.jobs == 1
        assert options.cache is None
        assert options.journal is None
        assert options.timeout is None
        assert options.on_error == "raise"
        assert options.dist is None
        assert options.version == SIMULATOR_VERSION

    def test_journal_path_becomes_journal(self, tmp_path):
        options = ExecOptions(journal=tmp_path / "grid.journal")
        assert isinstance(options.journal, Journal)
        assert options.journal.path == tmp_path / "grid.journal"
        assert ExecOptions(journal=str(tmp_path / "j")).journal.path \
            == tmp_path / "j"

    def test_journal_passes_through(self, tmp_path):
        journal = Journal(tmp_path / "grid.journal")
        assert ExecOptions(journal=journal).journal is journal

    def test_audit_fraction_becomes_policy(self):
        assert ExecOptions().audit == AuditPolicy(0.0)
        assert ExecOptions(audit=0.25).audit == AuditPolicy(0.25)
        assert ExecOptions(audit=1).audit.fraction == 1.0

    def test_audit_policy_passes_through(self):
        policy = AuditPolicy(0.5, seed=3)
        assert ExecOptions(audit=policy).audit is policy

    def test_dist_path_becomes_options(self, tmp_path):
        options = ExecOptions(dist=tmp_path / "spool")
        assert isinstance(options.dist, DistOptions)
        assert options.dist.spool == tmp_path / "spool"
        assert ExecOptions(dist=str(tmp_path)).dist.spool == tmp_path

    def test_dist_options_pass_through(self, tmp_path):
        dist = DistOptions(spool=tmp_path, poll=0.01)
        assert ExecOptions(dist=dist).dist is dist

    def test_cache_passes_through(self):
        cache = ResultCache()
        assert ExecOptions(cache=cache).cache is cache

    def test_rebuilding_from_resolved_fields_is_idempotent(self,
                                                           tmp_path):
        first = ExecOptions(jobs=2, journal=tmp_path / "j", audit=0.5,
                            dist=tmp_path / "spool", on_error="skip")
        again = ExecOptions(**{name: getattr(first, name)
                               for name in first.__dataclass_fields__})
        assert again == first
        assert again.fail_fast == first.fail_fast

    def test_frozen(self):
        options = ExecOptions()
        with pytest.raises(AttributeError):
            options.jobs = 4


class TestValidation:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExecOptions(jobs=jobs)

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            ExecOptions(on_error="ignore")

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan")])
    def test_nonpositive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            ExecOptions(timeout=timeout)

    def test_positive_timeout_and_none_accepted(self):
        assert ExecOptions(timeout=0.5).timeout == 0.5
        assert ExecOptions(timeout=None).timeout is None

    def test_bad_audit_fraction_rejected(self):
        with pytest.raises(ValueError, match="audit fraction"):
            ExecOptions(audit=1.5)

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            ExecOptions(jbos=2)
        with pytest.raises(TypeError):
            run_grid([], jbos=2)

    def test_negative_timeout_fails_before_any_cell(self):
        # A negative budget used to time out every cell of the grid.
        tasks = grid_tasks([MachineConfig()] * 4,
                           {"gzip": benchmark_trace("gzip", 2000)})
        with pytest.raises(ValueError, match="timeout"):
            run_grid(tasks, jobs=2, timeout=-1.0, on_error="skip")


class TestResolvedDefaults:
    @pytest.mark.parametrize("on_error, policy, fail_fast", [
        ("raise", NO_RETRY_POLICY, True),
        ("retry", DEFAULT_RETRY_POLICY, False),
        ("skip", DEFAULT_RETRY_POLICY, False),
    ])
    def test_retry_default_per_mode(self, on_error, policy, fail_fast):
        options = ExecOptions(on_error=on_error)
        assert options.retry is policy
        assert options.fail_fast is fail_fast

    @pytest.mark.parametrize("on_error", ["raise", "retry", "skip"])
    def test_explicit_policy_is_kept_and_never_fails_fast(self,
                                                          on_error):
        policy = RetryPolicy(max_attempts=1)
        options = ExecOptions(on_error=on_error, retry=policy)
        assert options.retry is policy
        assert not options.fail_fast

    @pytest.mark.parametrize("jobs", [1, 2, 7])
    def test_max_worker_deaths_derived_from_jobs(self, jobs):
        assert ExecOptions(jobs=jobs).max_worker_deaths == 2 * jobs + 2

    def test_explicit_max_worker_deaths_kept(self):
        assert ExecOptions(jobs=4, max_worker_deaths=0) \
            .max_worker_deaths == 0


def test_dist_runtime_loads_only_when_dist_is_set():
    # Single-host options must not import the distributed runtime;
    # run in a fresh interpreter so other tests' imports don't count.
    code = (
        "import sys; from repro.exec import ExecOptions; "
        "ExecOptions(jobs=2, audit=0.5); "
        "assert 'repro.dist' not in sys.modules; "
        "ExecOptions(dist='spool-dir'); "
        "assert 'repro.dist.options' in sys.modules; "
        "assert 'repro.dist.broker' not in sys.modules"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
