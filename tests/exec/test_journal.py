"""Tests for the checkpoint journal (repro.exec.journal).

The journal's contract: every recorded cell survives any interruption
of the writing process; loading tolerates a torn final line; resuming
from a journal re-simulates only the missing cells and yields results
bit-identical to an uninterrupted run.
"""

import pytest

from repro.core import PBExperiment, rank_parameters_from_result
from repro.cpu import MachineConfig
from repro.exec import (
    Journal,
    grid_tasks,
    run_grid,
    task_key,
)
import repro.exec.engine as engine
from repro.guard import faults
from repro.guard.faults import Fault, FaultInjector
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


@pytest.fixture(scope="module")
def traces():
    return {
        "gzip": benchmark_trace("gzip", 800),
        "mcf": benchmark_trace("mcf", 800),
    }


@pytest.fixture(scope="module")
def tasks(traces):
    configs = [
        MachineConfig(),
        MachineConfig().evolve(rob_entries=64),
        MachineConfig().evolve(l2_latency=20),
    ]
    return grid_tasks(configs, traces)


def _counting(monkeypatch):
    calls = {"n": 0}
    real = engine.simulate

    def counting_simulate(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "simulate", counting_simulate)
    return calls


class TestJournalFile:
    def test_roundtrip(self, tmp_path, tasks):
        path = tmp_path / "grid.journal"
        stats = run_grid(tasks[:1])[0]
        key = task_key(tasks[0])
        with Journal(path) as journal:
            journal.record(key, stats)
        reloaded = Journal(path)
        assert len(reloaded) == 1
        assert key in reloaded
        assert reloaded.get(key) == stats
        assert reloaded.corrupt == 0

    def test_record_is_idempotent(self, tmp_path, tasks):
        path = tmp_path / "grid.journal"
        stats = run_grid(tasks[:1])[0]
        journal = Journal(path)
        journal.record("k", stats)
        journal.record("k", stats)
        journal.close()
        assert len(Journal(path)) == 1

    def test_torn_final_line_is_dropped(self, tmp_path, tasks):
        path = tmp_path / "grid.journal"
        stats = run_grid(tasks[:1])[0]
        with Journal(path) as journal:
            journal.record("a", stats)
            journal.record("b", stats)
        # Simulate a crash mid-write: truncate into the last line.
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        reloaded = Journal(path)
        assert reloaded.corrupt == 1
        assert "a" in reloaded and "b" not in reloaded

    def test_checksum_mismatch_is_dropped(self, tmp_path, tasks):
        path = tmp_path / "grid.journal"
        stats = run_grid(tasks[:1])[0]
        with Journal(path) as journal:
            journal.record("a", stats)
        line = path.read_text()
        flipped = line.replace('"sha": "', '"sha": "0000', 1)
        path.write_text(flipped)
        reloaded = Journal(path)
        assert reloaded.corrupt == 1
        assert len(reloaded) == 0

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(tmp_path / "nothing.journal")
        assert len(journal) == 0
        assert journal.corrupt == 0


class TestGridResume:
    def test_interrupted_grid_resumes_where_it_stopped(
        self, tmp_path, tasks, monkeypatch
    ):
        path = tmp_path / "grid.journal"
        clean = [s.cycles for s in run_grid(tasks)]
        stop_at = 4
        with faults.injected(
            FaultInjector([Fault("interrupt", stop_at)])
        ):
            with pytest.raises(KeyboardInterrupt):
                run_grid(tasks, journal=path)
        assert len(Journal(path)) == stop_at
        calls = _counting(monkeypatch)
        resumed = run_grid(tasks, journal=path)
        assert calls["n"] == len(tasks) - stop_at
        assert [s.cycles for s in resumed] == clean
        assert len(Journal(path)) == len(tasks)

    def test_journal_preload_feeds_the_cache(self, tmp_path, tasks):
        from repro.exec import ResultCache

        path = tmp_path / "grid.journal"
        run_grid(tasks, journal=path)
        cache = ResultCache()
        run_grid(tasks, journal=Journal(path), cache=cache)
        assert all(task_key(t) in cache for t in tasks)

    def test_cache_hits_are_journaled(self, tmp_path, tasks):
        from repro.exec import ResultCache

        cache = ResultCache(tmp_path / "cache")
        run_grid(tasks, cache=cache)
        path = tmp_path / "grid.journal"
        run_grid(tasks, cache=cache, journal=path)
        assert len(Journal(path)) == len(tasks)

    def test_journal_accepts_path_string(self, tmp_path, tasks):
        path = str(tmp_path / "grid.journal")
        run_grid(tasks, journal=path)
        assert len(Journal(path)) == len(tasks)


class TestExperimentResume:
    def test_screen_resume_bit_identical(self, tmp_path, traces,
                                         monkeypatch):
        """The acceptance shape: Ctrl-C mid-screen, resume, compare."""
        experiment = PBExperiment(traces, parameter_names=SUBSET)
        reference = experiment.run()
        path = tmp_path / "screen.journal"
        with faults.injected(
            FaultInjector([Fault("interrupt", 10)])
        ):
            with pytest.raises(KeyboardInterrupt):
                experiment.run(journal=path)
        assert len(Journal(path)) == 10
        calls = _counting(monkeypatch)
        resumed = experiment.run(journal=path)
        total = reference.design.n_runs * len(traces)
        assert calls["n"] == total - 10
        assert resumed.responses == reference.responses
        for bench in reference.responses:
            assert resumed.effects[bench].effects == \
                reference.effects[bench].effects
        ranking = rank_parameters_from_result(resumed)
        clean_ranking = rank_parameters_from_result(reference)
        assert ranking.factors == clean_ranking.factors
        assert ranking.sums == clean_ranking.sums


class TestInterleavedWriters:
    """Concurrent appenders must never tear each other's lines.

    The distributed broker and a straggling worker — or two resumed
    runs racing on one run directory — may append to the same journal
    file simultaneously.  ``Journal.record`` serialises the write
    with an exclusive ``flock``; this test runs real concurrent
    processes against one file and then proves every line parses.
    """

    WRITER = (
        "import sys\n"
        "from repro.exec import Journal\n"
        "tag, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
        "with Journal(path) as journal:\n"
        "    for n in range(count):\n"
        "        journal.record(\n"
        "            f'{tag}-{n:04d}',\n"
        "            {'tag': tag, 'n': n, 'pad': 'x' * 512},\n"
        "        )\n"
    )

    def test_concurrent_appends_never_tear(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.exec import scan_journal

        path = tmp_path / "shared.journal"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in
                     env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        tags = ("alpha", "beta", "gamma")
        count = 200
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER,
                 tag, str(count), str(path)],
                env=env,
            )
            for tag in tags
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0, 0]

        scan = scan_journal(path)
        assert scan.total == len(tags) * count
        assert scan.valid == scan.total
        assert scan.invalid == ()
        assert not scan.torn_tail

        journal = Journal(path)
        assert len(journal) == len(tags) * count
        assert journal.corrupt == 0
        for tag in tags:
            for n in range(count):
                assert journal.get(f"{tag}-{n:04d}")["n"] == n
