"""Tests for the checkpoint journal (repro.exec.journal).

The journal's contract: every recorded cell survives any interruption
of the writing process; loading tolerates a torn final line; resuming
from a journal re-simulates only the missing cells and yields results
bit-identical to an uninterrupted run.
"""

import warnings

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


class TestTornTailAppend:
    def test_record_after_a_torn_tail_gets_its_own_line(self,
                                                        tmp_path):
        # A crash mid-append left an unterminated fragment; the next
        # record must not merge into it, and the tail rule removes
        # the residue rather than leaving it as mid-file damage.
        path = tmp_path / "grid.journal"
        path.write_bytes(b'{"v": 2, "key": "lost", "sha": "')
        with pytest.warns(RuntimeWarning, match="torn: 1"):
            journal = Journal(path)
        journal.record("kept", {"n": 1})
        journal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reloaded = Journal(path)
        assert reloaded.get("kept") == {"n": 1}
        assert reloaded.corrupt == 0

    def test_record_over_a_torn_tail_reloads_clean(self, tmp_path):
        path = tmp_path / "grid.journal"
        with Journal(path) as journal:
            journal.record("first", {"n": 0})
        intact = path.read_bytes()
        with Journal(tmp_path / "other.journal") as other:
            other.record("lost", {"n": 1})
        lost = (tmp_path / "other.journal").read_bytes()
        path.write_bytes(intact + lost[: len(lost) // 2])
        with pytest.warns(RuntimeWarning, match="torn: 1"):
            journal = Journal(path)
        journal.record("second", {"n": 2})
        journal.close()
        reloaded = Journal(path)
        assert reloaded.corrupt == 0
        assert sorted(reloaded.keys()) == ["first", "second"]
        assert path.read_bytes().startswith(intact)


class TestInterleavedWriters:
    """Concurrent appenders must never tear each other's lines.

    The distributed broker and a straggling worker — or two resumed
    runs racing on one run directory — may append to the same journal
    file simultaneously.  Every sealed-line file (a journal, a cache
    segment, an event lane) appends through one appender that
    serialises the write with an exclusive ``flock``; this test runs
    real concurrent processes against one file, with each codec, and
    then proves every line parses.
    """

    WRITERS = {
        "journal": (
            "import sys\n"
            "from repro.exec import Journal\n"
            "tag, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
            "with Journal(path) as journal:\n"
            "    for n in range(count):\n"
            "        journal.record(\n"
            "            f'{tag}-{n:04d}',\n"
            "            {'tag': tag, 'n': n, 'pad': 'x' * 512},\n"
            "        )\n"
        ),
        "lane": (
            "import sys\n"
            "from repro.obs.stream import EventWriter\n"
            "tag, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
            "with EventWriter(path, lane=tag, version='v') as writer:\n"
            "    for n in range(count):\n"
            "        writer.mark(f'{tag}-{n:04d}', n=n, pad='x' * 512)\n"
        ),
    }

    @pytest.mark.parametrize("codec", sorted(WRITERS))
    def test_concurrent_appends_never_tear(self, tmp_path, codec):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.exec import scan_journal
        from repro.obs.stream import scan_stream

        path = tmp_path / "shared.jsonl"
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
                [sys.executable, "-c", self.WRITERS[codec],
                 tag, str(count), str(path)],
                env=env,
            )
            for tag in tags
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0, 0]

        if codec == "journal":
            scan = scan_journal(path)
            assert scan.total == len(tags) * count
        else:
            scan = scan_stream(path)
            # Each writer's generation adds its stream-open and -close.
            assert scan.total == len(tags) * (count + 2)
        assert scan.valid == scan.total
        assert scan.invalid == ()
        assert not scan.torn_tail

        if codec == "journal":
            journal = Journal(path)
            assert len(journal) == len(tags) * count
            assert journal.corrupt == 0
            for tag in tags:
                for n in range(count):
                    assert journal.get(f"{tag}-{n:04d}")["n"] == n
        else:
            for tag in tags:
                marks = [record.attrs["n"] for record in scan.records
                         if record.lane == tag
                         and record.kind == "instant"]
                assert marks == list(range(count))
