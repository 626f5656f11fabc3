"""Unit tests for the I/O channels of ``repro.guard.faults``.

I/O spec items parse to ``write`` / ``fsync`` / ``rename`` faults. The
write seam's contract in three claims:

* each seam primitive consumes exactly one index on its own channel
  (``write`` / ``fsync`` / ``rename``), so specs are schedulable
  without knowing how writers interleave;
* :func:`~repro.guard.faults.publish_bytes` is **atomic under every
  fault**: the destination name only ever holds the old payload or
  the complete new one, and no temp residue survives a failure;
* a transient fault window clears — retries consume fresh indices
  and succeed once past the window.

The grammar shared with task faults, the ``fired`` log and the
injector's lifecycle are in ``test_faults.py``.
"""

import errno

import pytest

from repro.guard import faults
from repro.guard.faults import (
    ALWAYS,
    Fault,
    FaultInjector,
    injected,
    publish_bytes,
    publish_text,
    vfs_fsync,
    vfs_replace,
    vfs_write,
)


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action 'chaos'"):
            Fault("chaos", 0)


class TestSpecParsing:
    def test_round_trip(self):
        inj = FaultInjector.from_spec(
            "enospc:5:10, torn:30, rename:2, fsync:0:always"
        )
        assert inj.faults == [
            Fault("enospc", 5, 10), Fault("torn", 30),
            Fault("rename", 2), Fault("fsync", 0, ALWAYS),
        ]
        assert [f.channel for f in inj.faults] == \
            ["write", "write", "rename", "fsync"]

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="chaos:1: unknown action"):
            FaultInjector.from_spec("chaos:1")


class TestChannelCounters:
    def test_each_primitive_consumes_its_own_channel(self, tmp_path):
        inj = FaultInjector([])
        with injected(inj):
            with open(tmp_path / "f", "wb") as handle:
                vfs_write(handle, b"x")
                vfs_write(handle, b"y")
                vfs_fsync(handle.fileno())
            vfs_replace(tmp_path / "f", tmp_path / "g")
        assert inj.counts == {"write": 2, "fsync": 1, "rename": 1}

    def test_window_semantics(self, tmp_path):
        inj = FaultInjector([Fault("enospc", 1, 2)])
        with injected(inj), open(tmp_path / "f", "wb") as handle:
            vfs_write(handle, b"ok")          # index 0: clean
            for _ in range(2):                # indices 1, 2: faulted
                with pytest.raises(OSError) as err:
                    vfs_write(handle, b"no")
                assert err.value.errno == errno.ENOSPC
            vfs_write(handle, b"ok")          # index 3: window past
        assert inj.fired == [("write", 1, "enospc"),
                             ("write", 2, "enospc")]


class TestTornWrites:
    def test_half_the_bytes_land_then_enospc(self, tmp_path):
        path = tmp_path / "torn"
        inj = FaultInjector([Fault("torn", 0)])
        with injected(inj):
            with open(path, "wb") as handle:
                with pytest.raises(OSError) as err:
                    vfs_write(handle, b"0123456789")
        assert err.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"01234"  # the damage is on disk


class TestPublishAtomicity:
    @pytest.mark.parametrize("action", ["enospc", "eio", "torn",
                                        "fsync", "rename"])
    def test_no_torn_destination_under_any_fault(self, tmp_path,
                                                 action):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old payload")
        inj = FaultInjector([Fault(action, 0, ALWAYS)])
        with injected(inj), pytest.raises(OSError):
            publish_bytes(path, b"new payload", fsync=True, retries=2)
        assert path.read_bytes() == b"old payload"
        assert list(tmp_path.iterdir()) == [path], \
            "temp residue survived a failed publish"

    def test_retries_clear_a_transient_window(self, tmp_path):
        path = tmp_path / "artifact.bin"
        inj = FaultInjector([Fault("enospc", 0, 2)])
        with injected(inj):
            publish_bytes(path, b"payload", retries=2)
        assert path.read_bytes() == b"payload"
        assert inj.fired == [("write", 0, "enospc"),
                             ("write", 1, "enospc")]

    def test_publish_text_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        publish_text(path, "{\"ok\": true}\n")
        assert path.read_text() == "{\"ok\": true}\n"

    def test_temp_name_never_matches_artifact_scans(self, tmp_path,
                                                    monkeypatch):
        """An in-progress publish must be invisible to directory
        scans globbing final suffixes (*.task, *.pkl, *.result)."""
        seen = []
        real_write = faults.vfs_write

        def spy(handle, data):
            seen.extend(p.name for p in tmp_path.glob("*.task"))
            real_write(handle, data)

        monkeypatch.setattr(faults, "vfs_write", spy)
        publish_bytes(tmp_path / "cell.task", b"payload")
        assert seen == []  # only the finished name is ever visible
        assert (tmp_path / "cell.task").exists()
