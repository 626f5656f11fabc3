"""Unit and property tests for the retention GC layer.

The safety claim this file pins: **``repro gc`` never loses a valid
cell** — compaction keeps the last valid line of every key, so a
journal (or cache segment) loads the same before and after, and spool
results are only removed once the journal validly holds their key.
Everything else (drop counting per reason, orphan temp cleanup,
compaction byte-identity) is conventional unit coverage.
"""

import os
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import Journal, ResultCache
from repro.guard.retention import (
    GCReport,
    cache_stats,
    compact_journal,
    gc_run_dir,
    gc_spool,
    journal_keys,
    spool_inflight_keys,
)


def _entry(directory, name, payload=b"x", *, age=0.0,
           suffix=".pkl"):
    """Write one file, backdated ``age`` seconds."""
    path = directory / f"{name}{suffix}"
    path.write_bytes(payload)
    if age:
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
    return path


def _line(key, n=0):
    """One valid journal line for ``key``, written by
    :meth:`Journal.record` (the payload ``{"n": n}`` tells apart
    lines of the same key)."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "line.jsonl"
        journal = Journal(path)
        journal.record(key, {"n": n})
        journal.close()
        return path.read_bytes()


def _doctored(line):
    """``line`` with its recorded checksum no longer matching."""
    return line.replace(b'"sha": "', b'"sha": "f')


def _loaded(path):
    """``{key: payload}`` as a fresh load sees the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        journal = Journal(path)
    return {key: journal.get(key) for key in journal.keys()}


class TestCacheStats:
    def test_inventory(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        segment = tmp_path / "segment.jsonl"
        with open(segment, "ab") as handle:
            handle.write(_doctored(_line("c")))
        _entry(tmp_path, "legacy", b"12")
        stats = cache_stats(tmp_path)
        assert stats.entries == 2
        assert stats.lines == 3
        assert stats.bytes == segment.stat().st_size
        assert stats.dropped == {"checksum": 1}
        assert stats.legacy_entries == 1
        assert stats.to_dict()["entries"] == 2

    def test_empty_directory(self, tmp_path):
        stats = cache_stats(tmp_path / "nowhere")
        assert stats.entries == 0
        assert stats.dropped == {}


class TestCompactionNeverLosesAValidCell:
    """The safety property, driven by hypothesis: whatever mix of
    valid, duplicate, doctored and torn lines a file holds,
    compaction leaves exactly what a load saw."""

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["k0", "k1", "k2", "k3"]),
                  st.sampled_from(["valid", "doctored", "garbage"])),
        min_size=1, max_size=10,
    ), torn=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_compaction_keeps_every_valid_key(self, tmp_path_factory,
                                              ops, torn):
        path = tmp_path_factory.mktemp("compact-prop") / "j.jsonl"
        lines = {
            "valid": lambda key: _line(key, 1),
            "doctored": lambda key: _doctored(_line(key, 2)),
            "garbage": lambda key: b"not a journal line\n",
        }
        data = b"".join(lines[kind](key) for key, kind in ops)
        if torn:
            data += _line("k9")[:-20]
        path.write_bytes(data)
        before = _loaded(path)
        report = compact_journal(path)
        assert _loaded(path) == before
        text = path.read_bytes()
        assert len(text.splitlines()) == len(before)
        assert report.journal_lines_dropped \
            == len(ops) + torn - len(before)


class TestPinningSources:
    def test_journal_keys_valid_only(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(
            _line("good") + b"not json at all\n"
            + _doctored(_line("damaged-but-named"))
            + _line("torn")[:-20]
        )
        assert journal_keys(journal) == {"good"}

    def test_journal_keys_missing_file(self, tmp_path):
        assert journal_keys(tmp_path / "gone.jsonl") == set()

    def test_spool_inflight(self, tmp_path):
        (tmp_path / "pending").mkdir()
        (tmp_path / "leased").mkdir()
        (tmp_path / "pending" / "k1.task").write_bytes(b"")
        (tmp_path / "leased" / "k2.task").write_bytes(b"")
        (tmp_path / "leased" / "k3.lease").write_bytes(b"")
        assert spool_inflight_keys(tmp_path) == {"k1", "k2", "k3"}


class TestGcSpool:
    def _spool(self, tmp_path):
        for sub in ("pending", "leased", "results"):
            (tmp_path / sub).mkdir(parents=True, exist_ok=True)
        return tmp_path

    def test_consumed_results_removed(self, tmp_path):
        spool = self._spool(tmp_path)
        _entry(spool / "results", "done", age=10, suffix=".result")
        _entry(spool / "results", "kept", age=10, suffix=".result")
        report = gc_spool(spool, consumed={"done"})
        assert report.spool_results_removed == 1
        assert (spool / "results" / "kept.result").exists()
        assert not (spool / "results" / "done.result").exists()

    def test_inflight_keys_never_removed(self, tmp_path):
        spool = self._spool(tmp_path)
        _entry(spool / "results", "racing", age=10, suffix=".result")
        (spool / "pending" / "racing.task").write_bytes(b"")
        report = gc_spool(spool, consumed={"racing"})
        assert report.spool_results_removed == 0
        assert (spool / "results" / "racing.result").exists()

    def test_budget_keeps_newest(self, tmp_path):
        spool = self._spool(tmp_path)
        for n in range(4):
            _entry(spool / "results", f"k{n}", age=400 - n * 100,
                   suffix=".result")
        report = gc_spool(spool, consumed={f"k{n}" for n in range(4)},
                          budget_results=2)
        assert report.spool_results_removed == 2
        kept = sorted(p.stem for p in
                      (spool / "results").glob("*.result"))
        assert kept == ["k2", "k3"]  # the two newest

    def test_orphaned_tmp_of_dead_pid_removed(self, tmp_path):
        spool = self._spool(tmp_path)
        # No live process has this pid (max pid is far smaller).
        dead = spool / "results" / ".x.result.tmp-4000000-ab"
        dead.write_bytes(b"partial")
        live = spool / "results" / f".y.result.tmp-{os.getpid()}-cd"
        live.write_bytes(b"in-progress")
        report = gc_spool(spool, consumed=set())
        assert report.spool_tmp_removed == 1
        assert not dead.exists()
        assert live.exists()  # its writer (this test) is alive


class TestCompactJournal:
    def _line(self, key, n=0):
        return _line(key, n)

    def test_duplicates_keep_last_raw_bytes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(
            self._line("a", 1) + self._line("b", 1)
            + self._line("a", 2)
        )
        report = compact_journal(journal)
        assert report.journal_lines_dropped == 1
        data = journal.read_bytes()
        assert data == self._line("a", 2) + self._line("b", 1)

    def test_torn_tail_and_damage_dropped(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(
            self._line("a") + b"garbage line\n"
            + b'{"key": "torn", "n"'  # no trailing newline
        )
        report = compact_journal(journal)
        assert report.journal_lines_dropped == 2
        assert journal.read_bytes() == self._line("a")

    def test_clean_journal_untouched(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        payload = self._line("a") + self._line("b")
        journal.write_bytes(payload)
        before = journal.stat().st_mtime_ns
        report = compact_journal(journal)
        assert report.journal_lines_dropped == 0
        assert journal.stat().st_mtime_ns == before  # no rewrite

    def test_dry_run_reports_without_rewriting(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        payload = self._line("a", 1) + self._line("a", 2)
        journal.write_bytes(payload)
        report = compact_journal(journal, dry_run=True)
        assert report.journal_lines_dropped == 1
        assert journal.read_bytes() == payload

    def test_damaged_duplicate_never_replaces_a_valid_line(self,
                                                           tmp_path):
        # A doctored copy of k1's line follows the valid one: the
        # loader keeps the valid line, and so must compaction.
        journal = tmp_path / "j.jsonl"
        Journal(journal).record("k1", {"n": 1})
        valid = journal.read_bytes()
        with open(journal, "ab") as handle:
            handle.write(_doctored(valid))
        report = compact_journal(journal)
        assert journal.read_bytes() == valid
        assert Journal(journal).get("k1") == {"n": 1}
        assert report.dropped == {str(journal): {"checksum": 1}}

    def test_version_drift_lines_are_dropped(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        Journal(journal, version="another-simulator").record("old", 1)
        with pytest.warns(RuntimeWarning, match="version-drift"):
            Journal(journal).record("new", 2)
        report = compact_journal(journal)
        assert report.dropped == {str(journal): {"version-drift": 1}}
        assert _loaded(journal) == {"new": 2}
        assert len(journal.read_bytes().splitlines()) == 1

    def test_drops_counted_per_reason(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(
            self._line("a", 1) + b"garbage line\n" + self._line("a", 2)
            + _doctored(self._line("b")) + self._line("c")[:-9])
        report = compact_journal(journal)
        assert report.dropped == {str(journal): {
            "duplicate": 1, "malformed": 1, "checksum": 1, "torn": 1}}
        assert report.journal_lines_dropped == 4
        assert journal.read_bytes() == self._line("a", 2)


class TestGcRunDir:
    def _spool_result(self, tmp_path, key):
        spool = tmp_path / "spool"
        (spool / "results").mkdir(parents=True, exist_ok=True)
        (spool / "pending").mkdir(exist_ok=True)
        return _entry(spool / "results", key, age=10, suffix=".result")

    def test_journal_consumes_spool(self, tmp_path):
        Journal(tmp_path / "journal.jsonl").record("journaled", 1)
        consumed = self._spool_result(tmp_path, "journaled")
        unharvested = self._spool_result(tmp_path, "elsewhere")
        report = gc_run_dir(tmp_path)
        # The journal holds the key, so its spool result is consumed;
        # a result the journal does not cover stays.
        assert report.spool_results_removed == 1
        assert not consumed.exists()
        assert unharvested.exists()

    def test_damaged_journal_line_consumes_nothing(self, tmp_path):
        # k1's only journal line fails its checksum: the journal
        # cannot restore k1, so the spool result is its only copy.
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(_doctored(_line("k1")))
        result = self._spool_result(tmp_path, "k1")
        report = gc_run_dir(tmp_path)
        assert _loaded(journal) == {}
        assert report.spool_results_removed == 0
        assert result.exists()

    def test_compaction_covers_journal_and_cache_segment(self,
                                                         tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(_line("a") + _line("a"))
        cache = ResultCache(tmp_path / "cache")
        cache.put("b", 1)
        segment = tmp_path / "cache" / "segment.jsonl"
        with open(segment, "ab") as handle:
            handle.write(_doctored(_line("b")))
        report = gc_run_dir(tmp_path, compact=True)
        assert report.dropped == {
            str(journal): {"duplicate": 1},
            str(segment): {"checksum": 1},
        }
        assert report.journal_lines_dropped == 2
        assert ResultCache(tmp_path / "cache").get("b") == 1
        assert len(segment.read_bytes().splitlines()) == 1

    def test_cache_dir_given_directly_is_compacted(self, tmp_path):
        # 'repro gc DIR' where DIR is a --cache-dir: its own segment
        # is compacted, lines of other simulator versions included.
        ResultCache(tmp_path, version="another-simulator").put("old", 0)
        cache = ResultCache(tmp_path)
        cache.put("b", 1)
        cache.put("c", 2)
        segment = tmp_path / "segment.jsonl"
        with open(segment, "ab") as handle:
            handle.write(_doctored(_line("b")))
        report = gc_run_dir(tmp_path, compact=True)
        assert report.dropped == {
            str(segment): {"version-drift": 1, "checksum": 1}}
        fresh = ResultCache(tmp_path)
        assert (fresh.get("b"), fresh.get("c"), len(fresh)) == (1, 2, 2)
        assert fresh.corrupt == 0

    def test_report_dict_shape(self):
        doc = GCReport().to_dict()
        assert set(doc) == {"dry_run", "spool", "journal"}

    def test_merge_accumulates(self):
        a = GCReport(journal_lines_dropped=1, spool_tmp_removed=2)
        b = GCReport(journal_lines_dropped=3)
        a.merge(b)
        assert a.journal_lines_dropped == 4
        assert a.spool_tmp_removed == 2
