"""Tests for sampled re-execution audits (repro.guard.audit) and
their wiring through the execution engine."""

import dataclasses

import pytest

from repro.cpu import MachineConfig
from repro.exec import Journal, ResultCache, grid_tasks, run_grid, task_key
import repro.exec.engine as engine
from repro.guard import (
    AuditMismatch,
    AuditPolicy,
    differing_fields,
    verify_restored,
)
from repro.workloads import benchmark_trace


@pytest.fixture(scope="module")
def traces():
    return {
        "gzip": benchmark_trace("gzip", 1200),
        "mcf": benchmark_trace("mcf", 1200),
    }


class TestPolicy:
    def test_selection_is_deterministic(self):
        policy = AuditPolicy(fraction=0.5, seed=7)
        keys = [f"key-{i}" for i in range(64)]
        assert [policy.selects(k) for k in keys] == \
            [policy.selects(k) for k in keys]

    def test_fraction_extremes(self):
        assert not any(AuditPolicy(0.0).selects(f"k{i}")
                       for i in range(32))
        assert all(AuditPolicy(1.0).selects(f"k{i}")
                   for i in range(32))

    def test_fraction_roughly_respected(self):
        policy = AuditPolicy(fraction=0.25, seed=0)
        chosen = sum(policy.selects(f"key-{i}") for i in range(2000))
        assert 350 < chosen < 650

    def test_seed_changes_the_subset(self):
        keys = [f"key-{i}" for i in range(256)]
        a = {k for k in keys if AuditPolicy(0.3, seed=1).selects(k)}
        b = {k for k in keys if AuditPolicy(0.3, seed=2).selects(k)}
        assert a != b

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            AuditPolicy(fraction=1.5)
        with pytest.raises(ValueError):
            AuditPolicy(fraction=-0.1)


@dataclasses.dataclass
class FakeStats:
    cycles: int
    instructions: int


class TestComparison:
    def test_differing_fields_names_the_divergence(self):
        a = FakeStats(cycles=10, instructions=5)
        b = FakeStats(cycles=11, instructions=5)
        assert differing_fields(a, b) == ["cycles"]
        assert differing_fields(a, a) == []

    def test_non_dataclass_fallback(self):
        assert differing_fields(1, 2) == ["value"]
        assert differing_fields("x", "x") == []

    def test_verify_restored_raises_with_both_payloads(self):
        a = FakeStats(cycles=10, instructions=5)
        b = FakeStats(cycles=11, instructions=6)
        with pytest.raises(AuditMismatch) as info:
            verify_restored("deadbeef" * 8, 3, "cache", a, b)
        exc = info.value
        assert exc.reason == "audit-mismatch"
        assert exc.expected is a and exc.actual is b
        assert exc.fields == ("cycles", "instructions")
        assert exc.index == 3 and exc.source == "cache"

    def test_verify_restored_silent_on_agreement(self):
        a = FakeStats(cycles=10, instructions=5)
        verify_restored("k", 0, "journal", a, FakeStats(10, 5))


class TestEngineAudit:
    def test_clean_audit_is_bit_identical(self, tmp_path, traces):
        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache(tmp_path / "cache")
        cold = run_grid(tasks, cache=cache)
        audited = run_grid(tasks, cache=cache,
                           audit=AuditPolicy(fraction=1.0))
        assert list(cold) == list(audited)

    def test_audit_reexecutes_selected_hits(self, tmp_path, traces,
                                            monkeypatch):
        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache(tmp_path / "cache")
        run_grid(tasks, cache=cache)
        calls = {"n": 0}
        real = engine.simulate

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate", counting)
        run_grid(tasks, cache=cache, audit=0.0)
        assert calls["n"] == 0          # warm, no audit: pure hits
        run_grid(tasks, cache=cache, audit=1.0)
        assert calls["n"] == len(tasks)  # full audit: every hit re-run

    def test_tampered_cache_entry_raises_mismatch(self, tmp_path,
                                                  traces):
        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache(tmp_path / "cache")
        run_grid(tasks, cache=cache)
        # Tamper in the trusted layer: bump a counter in memory so the
        # seal still verifies but the content is stale.
        key = task_key(tasks[0])
        stats = cache._memory[key]
        cache._memory[key] = dataclasses.replace(
            stats, cycles=stats.cycles + 1
        )
        with pytest.raises(AuditMismatch) as info:
            run_grid(tasks, cache=cache, audit=1.0)
        exc = info.value
        assert exc.key == key
        assert exc.source == "cache"
        assert "cycles" in exc.fields
        assert exc.expected.cycles == exc.actual.cycles + 1

    def test_tampered_journal_entry_raises_mismatch(self, tmp_path,
                                                    traces):
        tasks = grid_tasks([MachineConfig()], traces)
        journal_path = tmp_path / "journal.jsonl"
        with Journal(journal_path) as journal:
            run_grid(tasks, journal=journal)
        # Re-record a stale value under the first task's key in a
        # fresh journal: the seal machinery is honest, the value lies.
        key = task_key(tasks[0])
        with Journal(journal_path) as journal:
            stats = journal.get(key)
            tampered = tmp_path / "tampered.jsonl"
            with Journal(tampered) as bad:
                for other in journal.keys():
                    if other == key:
                        bad.record(other, dataclasses.replace(
                            stats, cycles=stats.cycles + 1
                        ))
                    else:
                        bad.record(other, journal.get(other))
        with Journal(tampered) as bad, \
                pytest.raises(AuditMismatch) as info:
            run_grid(tasks, journal=bad, audit=1.0)
        assert info.value.source == "journal"

    def test_audit_counters_flow_through_telemetry(self, tmp_path,
                                                   traces):
        from repro.obs import Telemetry

        tasks = grid_tasks([MachineConfig()], traces)
        cache = ResultCache(tmp_path / "cache")
        run_grid(tasks, cache=cache)
        telemetry = Telemetry.armed(metrics=True)
        run_grid(tasks, cache=cache, audit=1.0, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot["audit.selected"]["value"] == len(tasks)
        assert snapshot["audit.passed"]["value"] == len(tasks)
        assert snapshot["audit.violations"]["value"] == 0
