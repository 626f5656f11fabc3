"""Mutation-style corruption suite.

Flips bytes (and truncates, and appends) in every durable artifact —
cache segment lines, journal lines, trace archives, run manifests —
and asserts that each loader *detects* the damage, *names* it with a
stable reason slug, and drops or refuses it rather than trusting it.
No mutation may ever load successfully as if nothing happened.
"""

import json
import warnings

import pytest

from repro.cpu import MachineConfig, simulate
from repro.exec import Journal, ResultCache, scan_journal
from repro.guard import SealError, TraceCorrupt
from repro.obs import RunManifest, load_manifest
from repro.workloads import benchmark_trace, load_trace, save_trace

#: Every slug a loader may name.  Detection must be *named*: a reason
#: outside this vocabulary is a regression even if the load fails.
KNOWN_REASONS = {
    "unsealed", "truncated", "checksum", "malformed-header",
    "wrong-kind", "schema-drift", "version-drift", "trailing-garbage",
    "unpicklable", "invalid-stats", "torn", "malformed",
    "format-drift",
}


@pytest.fixture(scope="module")
def trace():
    return benchmark_trace("gzip", 600)


@pytest.fixture(scope="module")
def stats(trace):
    return simulate(MachineConfig(), trace, warmup=True)


def flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


class TestCacheEntryMutations:
    #: Offsets spanning the line's envelope, key, checksum, payload
    #: and terminating newline.
    OFFSETS = [0, 5, 30, 80, 200, -40, -1]

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_flip_is_detected_named_quarantined(self, tmp_path, stats,
                                                offset):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k" * 64, stats)
        segment = tmp_path / "cache" / "segment.jsonl"
        flip(segment, offset)
        fresh = ResultCache(tmp_path / "cache")
        with pytest.warns(RuntimeWarning, match="dropped 1"):
            assert fresh.get("k" * 64) is None
        assert fresh.corrupt == 1
        (reason, count), = fresh.dropped.items()
        assert count == 1 and reason in KNOWN_REASONS
        # Never trusted: the re-simulated cell is appended afresh and
        # the next open serves it, with mid-file damage still counted.
        # A flipped final newline leaves a torn tail instead, which
        # the put's tail rule removes like any crash residue.
        fresh.put("k" * 64, stats)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed = ResultCache(tmp_path / "cache")
            assert healed.get("k" * 64) == stats
        assert healed.corrupt == (reason != "torn")
        assert sum("dropped 1" in str(w.message) for w in caught) \
            == healed.corrupt

    def test_truncation(self, tmp_path, stats):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k" * 64, stats)
        segment = tmp_path / "cache" / "segment.jsonl"
        segment.write_bytes(segment.read_bytes()[:-30])
        fresh = ResultCache(tmp_path / "cache")
        with pytest.warns(RuntimeWarning, match="torn"):
            assert fresh.get("k" * 64) is None
        assert fresh.dropped == {"torn": 1}

    def test_legacy_bare_pickle(self, tmp_path, stats):
        import pickle

        (tmp_path / "cache").mkdir()
        entry = tmp_path / "cache" / ("k" * 64 + ".pkl")
        entry.write_bytes(pickle.dumps(stats))
        with pytest.warns(RuntimeWarning, match="earlier format") \
                as warned:
            cache = ResultCache(tmp_path / "cache")
            assert cache.get("k" * 64) is None
        assert len(warned) == 1
        assert cache.legacy_entries == 1
        assert cache.dropped == {}


class TestJournalMutations:
    @pytest.fixture()
    def journal_path(self, tmp_path, stats):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            for i in range(4):
                journal.record(f"key-{i}" + "0" * 58, stats)
        return path

    @pytest.mark.parametrize("line,offset", [
        (0, 10), (1, 40), (2, 120), (3, -10),
    ])
    def test_flipped_line_is_dropped_with_reason(self, journal_path,
                                                 line, offset):
        lines = journal_path.read_bytes().splitlines(keepends=True)
        mutated = bytearray(lines[line])
        mutated[offset % (len(mutated) - 1)] ^= 0xFF
        lines[line] = bytes(mutated)
        journal_path.write_bytes(b"".join(lines))
        with pytest.warns(RuntimeWarning, match="journal repair"):
            journal = Journal(journal_path)
        assert journal.corrupt == 1
        assert len(journal) == 3
        (reason, count), = journal.dropped.items()
        assert count == 1 and reason in KNOWN_REASONS
        scan = scan_journal(journal_path)
        assert scan.invalid == ((line + 1, reason),)

    def test_truncated_tail_is_torn(self, journal_path):
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-25])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            journal = Journal(journal_path)
        assert journal.dropped == {"torn": 1}
        assert len(journal) == 3


class TestTraceMutations:
    @pytest.fixture()
    def archive(self, tmp_path, trace):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        return path

    @pytest.mark.parametrize("offset", [0, 7, 40, 90, 500, -1])
    def test_flip_raises_named_seal_error(self, archive, offset):
        flip(archive, offset)
        with pytest.raises((SealError, TraceCorrupt)) as info:
            load_trace(archive, strict=True)
        assert info.value.reason in KNOWN_REASONS | {
            "structure", "pc-flow", "opcode-domain",
            "branch-kind-domain", "pc-domain", "address-domain",
        }

    def test_truncation_is_named(self, archive):
        archive.write_bytes(archive.read_bytes()[:-100])
        with pytest.raises(SealError) as info:
            load_trace(archive)
        assert info.value.reason == "truncated"

    def test_trailing_garbage_is_named(self, archive):
        archive.write_bytes(archive.read_bytes() + b"xx")
        with pytest.raises(SealError) as info:
            load_trace(archive)
        assert info.value.reason == "trailing-garbage"

    def test_round_trip_still_clean(self, archive, trace):
        # Control: the unmutated archive loads strictly.
        loaded = load_trace(archive, strict=True)
        assert loaded.fingerprint() == trace.fingerprint()


class TestManifestMutations:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        manifest = RunManifest(command="screen", fingerprint="f" * 64)
        manifest.finalize(status="completed")
        path = tmp_path / "manifest.json"
        manifest.write(path)
        return path

    def test_control_loads_clean(self, manifest_path):
        doc = load_manifest(manifest_path)
        assert doc["run"]["command"] == "screen"

    @pytest.mark.parametrize("needle", [
        b'"command"', b'"exit_status"', b'"fingerprint"', b'"sha256"',
    ])
    def test_flip_is_detected(self, manifest_path, needle):
        # Flip the low bit of the first character of the named field's
        # value: still valid JSON, but the digest no longer matches.
        data = bytearray(manifest_path.read_bytes())
        position = data.index(needle) + len(needle) + 3
        data[position] ^= 0x01
        manifest_path.write_bytes(bytes(data))
        with pytest.raises(SealError) as info:
            load_manifest(manifest_path)
        assert info.value.reason in KNOWN_REASONS

    def test_field_edit_breaks_digest(self, manifest_path):
        doc = json.loads(manifest_path.read_text())
        doc["run"]["command"] = "evil"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SealError) as info:
            load_manifest(manifest_path)
        assert info.value.reason == "checksum"

    def test_stripped_integrity_is_unsealed(self, manifest_path):
        doc = json.loads(manifest_path.read_text())
        del doc["integrity"]
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SealError) as info:
            load_manifest(manifest_path)
        assert info.value.reason == "unsealed"
