"""The sealed-line framing (repro.guard.lines) under both codecs.

The journal (and with it the cache segment) and the event lanes share
one walker, one scan result and one tail rule, so the properties here
are stated across codecs: on any bytes the journal scan and the lane
scan frame a file alike, and the tail rule plus one append leaves no
torn line, loses no line that parsed and touches no mid-file damage.
"""

import functools
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import Journal, repair_journal, scan_journal
from repro.obs.stream import EventWriter, scan_stream


@functools.lru_cache(maxsize=None)
def _valid_lines(codec):
    """Four valid, newline-terminated lines of ``codec``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "lines.jsonl"
        if codec == "journal":
            with Journal(path) as journal:
                for n in range(4):
                    journal.record(f"k{n}", {"n": n})
        else:
            with EventWriter(path, lane="old", version="v") as writer:
                for n in range(2):
                    writer.mark(f"m{n}", n=n)
        return tuple(path.read_bytes().splitlines(keepends=True))


#: Arbitrary bytes, with line breaks common enough to make lines.
BLOBS = st.lists(
    st.one_of(st.binary(max_size=24),
              st.sampled_from([b"\n", b" \n", b"\r\n", b"{}\n"])),
    max_size=12,
).map(b"".join)


def _file(codec):
    """Valid lines of ``codec`` among garbage, ending in anything
    from nothing to a whole line that lost only its newline."""
    valid = _valid_lines(codec)
    piece = st.one_of(st.sampled_from(valid), st.binary(max_size=16),
                      st.just(b"\n"))
    cut = st.tuples(st.sampled_from(valid), st.integers(1, 2000)).map(
        lambda pair: pair[0][:-1][:pair[1]])
    return st.tuples(st.lists(piece, max_size=8),
                     st.one_of(st.just(b""), cut)).map(
        lambda parts: b"".join(parts[0]) + parts[1])


def _quiet(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return call(*args)


@given(data=BLOBS)
@settings(max_examples=200, deadline=None)
def test_journal_and_lane_scans_frame_alike(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("frame") / "blob.jsonl"
    path.write_bytes(data)
    journal = scan_journal(path)
    lane = scan_stream(path)
    assert [lineno for lineno, _ in journal.invalid] \
        == [lineno for lineno, _ in lane.invalid]
    assert (journal.total, journal.valid) == (lane.total, lane.valid)
    assert (journal.torn_tail, journal.keep_bytes) \
        == (lane.torn_tail, lane.keep_bytes)


def _journal_state(path):
    journal = _quiet(Journal, path)
    return scan_journal(path), {key: journal.get(key)
                                for key in journal.keys()}


class TestTailRuleThenAppend:
    @given(data=_file("journal"))
    @settings(max_examples=80, deadline=None)
    def test_journal(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        path.write_bytes(data)
        before, entries = _journal_state(path)
        repair = repair_journal(path)
        assert repair.truncated_bytes == len(data) - before.keep_bytes
        journal = _quiet(Journal, path)
        journal.record("new", {"n": -1})
        journal.close()
        after, reloaded = _journal_state(path)
        assert "torn" not in after.reasons()
        assert after.damage == before.damage
        assert after.valid == before.valid + 1
        assert reloaded == dict(entries, new={"n": -1})

    @given(data=_file("lane"))
    @settings(max_examples=80, deadline=None)
    def test_lane(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("lane") / "main.events.jsonl"
        path.write_bytes(data)
        before = scan_stream(path)
        with EventWriter(path, lane="new", version="v") as writer:
            writer.mark("appended")
        after = scan_stream(path)
        assert "torn" not in after.reasons()
        assert after.damage == before.damage
        # This generation's stream-open, the mark, its stream-close.
        assert after.valid == before.valid + 3
        assert after.records[:len(before.records)] == before.records


def test_an_open_appender_mends_another_writers_tail(tmp_path):
    # The appender skips the tail check only while the file still
    # ends where its own last line did; a fragment another writer
    # left in between is judged and removed.
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    journal.record("a", {"n": 0})
    with open(path, "ab") as handle:
        handle.write(_valid_lines("journal")[1][:40])
    journal.record("b", {"n": 1})
    journal.close()
    scan = scan_journal(path)
    assert (scan.valid, scan.invalid) == (2, ())
