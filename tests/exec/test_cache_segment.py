"""The result cache's on-disk layer: one journal-format segment.

Pins the store's contracts: a cache directory holds one append-only
``segment.jsonl`` (no per-key files, no quarantine directory); puts
are idempotent per key, so a warm rerun appends nothing; concurrent
writers sharing a directory never tear a line; and stores written in
the earlier one-file-per-key format are ignored loudly — a screen over
them still seals byte-identical results, and ``repro verify`` passes a
run directory that carries one, noting it.
"""

import base64
import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.cpu import SIMULATOR_VERSION
from repro.exec import Journal, ResultCache, scan_journal
from repro.exec.cache import SEGMENT_NAME
from repro.guard import seal
from repro.guard.verify import verify_run

#: One benchmark through the 88-run foldover design: 88 cells.
WORKLOAD = ["-b", "gzip", "-n", "400"]


def _screen(run_dir, *extra):
    assert main(["screen", *WORKLOAD, "--run-dir", str(run_dir),
                 *extra]) == 0


def _legacy_entry(cache_dir, key, stats):
    """One entry as the one-file-per-key cache wrote it: a sealed
    pickle named after its key."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / f"{key}.pkl").write_bytes(seal(
        pickle.dumps(stats, pickle.HIGHEST_PROTOCOL),
        kind="result-cache", schema=2,
        simulator_version=SIMULATOR_VERSION,
    ))


def _legacy_cache(cache_dir, journal_path):
    """A legacy cache holding every cell of a journal, plus the
    quarantine directory that format kept beside its entries."""
    journal = Journal(journal_path)
    for key in journal.keys():
        _legacy_entry(cache_dir, key, journal.get(key))
    (cache_dir / "quarantine").mkdir()
    (cache_dir / "quarantine" / "deadbeef.checksum.pkl").write_bytes(b"x")
    return len(journal)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A bare ``--run-dir`` screen: the byte-identity oracle."""
    run_dir = tmp_path_factory.mktemp("segment-reference") / "run"
    _screen(run_dir)
    return run_dir


class TestSegmentStore:
    def test_one_segment_file_and_nothing_else(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [SEGMENT_NAME]
        scan = scan_journal(tmp_path / SEGMENT_NAME)
        assert (scan.total, scan.valid, scan.invalid) == (2, 2, ())

    def test_put_is_idempotent_per_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"n": 1})
        size = (tmp_path / SEGMENT_NAME).stat().st_size
        cache.put("a", {"n": 1})
        ResultCache(tmp_path).put("a", {"n": 1})
        assert (tmp_path / SEGMENT_NAME).stat().st_size == size
        assert len(ResultCache(tmp_path)) == 1

    def test_memory_only_cache_touches_no_disk(self, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache()
        cache.put("a", 1)
        assert cache.get("a") == 1 and "a" in cache and len(cache) == 1
        assert list(tmp_path.iterdir()) == []

    def test_appends_become_visible_at_the_next_open(self, tmp_path):
        reader = ResultCache(tmp_path)
        assert reader.get("a") is None      # segment read here, once
        ResultCache(tmp_path).put("a", 1)
        assert reader.get("a") is None      # no tail refresh on a miss
        assert ResultCache(tmp_path).get("a") == 1

    def test_dropped_lines_surface_as_cache_corrupt(self, tmp_path):
        from repro.cpu import MachineConfig
        from repro.exec import grid_tasks, run_grid
        from repro.obs import Telemetry
        from repro.workloads import benchmark_trace

        (tmp_path / SEGMENT_NAME).write_bytes(b"damaged line\n")
        tasks = grid_tasks([MachineConfig()],
                           {"gzip": benchmark_trace("gzip", 300)})
        cache = ResultCache(tmp_path)
        telemetry = Telemetry.armed()
        with pytest.warns(RuntimeWarning, match="malformed: 1"):
            run_grid(tasks, cache=cache, telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["cache.corrupt"]["value"] == 1
        assert snap["cache.misses"]["value"] == len(tasks)


    def test_unpicklable_line_is_dropped_when_looked_up(self, tmp_path):
        # Payloads are unpickled on first lookup: a line whose
        # envelope and checksum hold but whose payload does not load
        # is dropped then, counted and warned about, and is a miss.
        cache = ResultCache(tmp_path)
        cache.put("good", {"n": 1})
        blob = b"not a pickle"
        line = json.dumps({
            "v": 2, "key": "bad", "sim": SIMULATOR_VERSION,
            "sha": hashlib.sha256(blob).hexdigest(),
            "stats": base64.b64encode(blob).decode("ascii"),
        }) + "\n"
        with open(tmp_path / SEGMENT_NAME, "a") as handle:
            handle.write(line)
        fresh = ResultCache(tmp_path)
        assert fresh.get("good") == {"n": 1}
        with pytest.warns(RuntimeWarning, match="unpicklable: 1"):
            assert fresh.get("bad") is None
        assert fresh.dropped == {"unpicklable": 1}
        assert "bad" not in fresh and len(fresh) == 1
        # Membership agrees with get, even before the first get.
        again = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="unpicklable: 1"):
            assert "bad" not in again
        assert "good" in again

    def test_compaction_after_open_cannot_move_a_line(self, tmp_path):
        # An open cache reads lines through the handle it loaded
        # them from, so a compaction that rewrites the segment (and
        # shifts every offset) under it changes no answer.
        from repro.guard.retention import compact_journal

        writer = ResultCache(tmp_path)
        for n in range(4):
            writer.put(f"k{n}", {"n": n})
        with open(tmp_path / SEGMENT_NAME, "ab") as handle:
            handle.write(b"garbage\n")
        writer.put("k4", {"n": 4})
        with pytest.warns(RuntimeWarning, match="malformed: 1"):
            reader = ResultCache(tmp_path)
            assert len(reader) == 5
        compact_journal(tmp_path / SEGMENT_NAME)
        assert [reader.get(f"k{n}") for n in range(5)] \
            == [{"n": n} for n in range(5)]
        assert reader.corrupt == 1


class TestSharedSegment:
    WRITER = (
        "import sys\n"
        "from repro.exec import ResultCache\n"
        "tag, path = sys.argv[1], sys.argv[2]\n"
        "cache = ResultCache(path)\n"
        "for n in range(150):\n"
        "    cache.put(f'{tag}-{n:04d}', {'tag': tag, 'n': n,\n"
        "                                 'pad': 'x' * 512})\n"
        "    cache.put(f'shared-{n:04d}', {'n': n})\n"
    )

    def test_concurrent_writers_interleave_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in
                     env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, tag, str(tmp_path)],
                env=env,
            )
            for tag in ("alpha", "beta")
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        scan = scan_journal(tmp_path / SEGMENT_NAME)
        assert scan.invalid == ()
        assert scan.valid == scan.total
        fresh = ResultCache(tmp_path)
        for n in range(150):
            for tag in ("alpha", "beta"):
                assert fresh.get(f"{tag}-{n:04d}") == \
                    {"tag": tag, "n": n, "pad": "x" * 512}
            assert fresh.get(f"shared-{n:04d}") == {"n": n}
        assert fresh.corrupt == 0

    def test_resume_over_a_warm_cache_appends_nothing(self, tmp_path,
                                                      reference):
        run_dir = tmp_path / "run"
        cache_dir = tmp_path / "shared-cache"
        _screen(run_dir, "--cache-dir", str(cache_dir))
        segment = cache_dir / SEGMENT_NAME
        before = segment.read_bytes()
        assert len(before.splitlines()) == 88
        # Resume the same run dir, then a new run dir over the warm
        # cache: every cell is restored, none is appended again.
        _screen(run_dir, "--cache-dir", str(cache_dir))
        _screen(tmp_path / "other", "--cache-dir", str(cache_dir))
        assert segment.read_bytes() == before
        for run in (run_dir, tmp_path / "other"):
            assert (run / "results.json").read_bytes() \
                == (reference / "results.json").read_bytes()


    def test_other_simulator_versions_share_the_segment(self, tmp_path,
                                                        reference,
                                                        capsys):
        # After a version bump a shared segment holds lines the
        # current simulator never looks up: they are not damage, so
        # nothing warns, verify passes, and gc compacts them away.
        cache_dir = tmp_path / "shared-cache"
        stale = Journal(reference / "journal.jsonl")
        old = ResultCache(cache_dir, version="an-earlier-simulator")
        for key in list(stale.keys())[:5]:
            old.put(key, stale.get(key))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _screen(tmp_path / "run", "--cache-dir", str(cache_dir))
        assert (tmp_path / "run" / "results.json").read_bytes() \
            == (reference / "results.json").read_bytes()
        assert verify_run(tmp_path / "run", cache_dir=cache_dir) \
            .status == 0
        capsys.readouterr()
        assert main(["gc", str(cache_dir), "--compact-journal",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["journal"]["dropped"] == {
            str(cache_dir / SEGMENT_NAME): {"version-drift": 5}}
        assert len((cache_dir / SEGMENT_NAME).read_bytes()
                   .splitlines()) == 88
        assert verify_run(tmp_path / "run", cache_dir=cache_dir) \
            .status == 0


class TestLegacyStores:
    def test_legacy_cache_ignored_with_one_warning(self, tmp_path,
                                                   reference):
        cache_dir = tmp_path / "old-cache"
        cells = _legacy_cache(cache_dir, reference / "journal.jsonl")
        assert cells == 88
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _screen(tmp_path / "run", "--cache-dir", str(cache_dir))
        legacy = [w for w in caught
                  if "earlier format" in str(w.message)]
        assert len(legacy) == 1
        assert legacy[0].category is RuntimeWarning
        assert (tmp_path / "run" / "results.json").read_bytes() \
            == (reference / "results.json").read_bytes()
        # Nothing was read from the old entries: every cell was
        # simulated and went to the segment beside them.
        assert len((cache_dir / SEGMENT_NAME).read_bytes()
                   .splitlines()) == 88
        assert len(sorted(cache_dir.glob("*.pkl"))) == 88

    def test_verify_notes_a_legacy_cache_in_an_old_run_dir(
            self, tmp_path, reference, capsys):
        # A run dir as the one-file-per-key version left it: the same
        # journal, manifest and results, plus cache/*.pkl.
        import shutil

        run_dir = tmp_path / "old-run"
        shutil.copytree(reference, run_dir)
        _legacy_cache(run_dir / "cache", run_dir / "journal.jsonl")
        report = verify_run(run_dir)
        assert report.status == 0
        notes = [c for c in report.checks if c.name == "cache-legacy"]
        assert len(notes) == 1 and notes[0].ok is True
        assert "88 legacy" in notes[0].detail
        assert main(["verify", str(run_dir)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            "VERIFIED: all artifacts agree")
