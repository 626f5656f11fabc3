"""EROFS / sick-disk degradation contracts, writer by writer.

The run directory going read-only (EROFS — a failed-over network
mount, a filesystem remounted ``ro`` after journal errors) must never
crash a grid.  Every durable writer satisfies one of the two
contracts from ``repro.guard.faults``:

* **degrade loudly** — cache puts and event-stream lanes self-disable
  with one warning and a counter, and the run completes;
* **fail atomically** — spool publishes and journal appends raise
  without ever exposing a torn artifact.

The injector's ``erofs`` action makes these tests deterministic and
root-proof; the chmod-based tests exercise the *real* kernel
permission path and skip where chmod cannot revoke writes (running
as root).
"""

import errno
import warnings

import pytest

from repro.cpu import MachineConfig, simulate
from repro.exec import ResultCache, SimTask, run_grid
from repro.exec.journal import Journal
from repro.dist.spool import Spool
from repro.guard import faults
from repro.guard.faults import ALWAYS, Fault, FaultInjector, injected
from repro.obs.stream import EventWriter
from repro.workloads import benchmark_trace


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def stats():
    return simulate(MachineConfig(), benchmark_trace("gzip", 200))


def _tasks(n=2):
    trace = benchmark_trace("gzip", 400)
    return [SimTask(config=MachineConfig(), trace=trace)
            for _ in range(n)]


def _erofs_always():
    return FaultInjector([Fault("erofs", 0, ALWAYS)])


class TestInjectedErofs:
    def test_vfs_write_raises_erofs(self, tmp_path):
        with injected(_erofs_always()):
            with open(tmp_path / "f", "wb") as handle:
                with pytest.raises(OSError) as err:
                    faults.vfs_write(handle, b"x")
        assert err.value.errno == errno.EROFS

    def test_cache_put_degrades_and_grid_completes(self, tmp_path):
        cache = ResultCache(tmp_path)
        with injected(_erofs_always()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_grid(_tasks(), cache=cache)
        assert all(s is not None for s in result)
        # One failure flips the "writes are down" switch; no further
        # puts are attempted, so exactly one warning and one count.
        assert cache.put_failures == 1
        relevant = [w for w in caught
                    if "cache writes failing" in str(w.message)]
        assert len(relevant) == 1
        # Nothing torn became visible: no entries, no temp residue.
        assert list(tmp_path.glob("*.pkl")) == []
        assert list(tmp_path.glob(".*.tmp-*")) == []

    def test_stream_lane_disables_once_and_stays_quiet(self, tmp_path):
        path = tmp_path / "events" / "main.events.jsonl"
        writer = EventWriter(path, lane="main")
        with injected(_erofs_always()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                writer.emit("task-start", "run")
                writer.emit("task-finish", "run")
        relevant = [w for w in caught
                    if "disabling the lane" in str(w.message)]
        assert len(relevant) == 1  # warn once, then silent
        # The lane stays down even after the outage clears — a lane
        # with a hole in it would be worse than no lane at all.
        writer.emit("task-start", "run")
        assert path.read_bytes() == b""

    def test_spool_publish_fails_atomically(self, tmp_path):
        spool = Spool(tmp_path)
        spool.ensure()
        with injected(_erofs_always()):
            with pytest.raises(OSError) as err:
                spool.write_result("k", index=0, attempt=1, worker="w",
                                   ok=False, error_type="Boom",
                                   message="sick disk")
        assert err.value.errno == errno.EROFS
        # The destination name never appeared and no temp survived.
        assert list((tmp_path / "results").iterdir()) == []

    def test_journal_record_rolls_back_exactly(self, tmp_path, stats):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record("good", stats)
        before = path.read_bytes()
        with injected(FaultInjector(
                [Fault("torn", 0, ALWAYS)])):
            with pytest.raises(OSError):
                journal.record("bad", stats)
        journal.close()
        # Every attempt was counted and rolled back under the lock:
        # the journal is byte-identical to before the failed record.
        assert journal.write_failures == journal._WRITE_ATTEMPTS
        assert path.read_bytes() == before


class TestReadOnlyRunDir:
    """The real EROFS-ish path: a directory with writes revoked.

    Skips when chmod cannot revoke write permission (running as
    root, some overlay filesystems) — the injector tests above cover
    the same contracts unconditionally.
    """

    @pytest.fixture
    def readonly_dir(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        target.chmod(0o555)
        probe = target / "probe"
        try:
            probe.write_bytes(b"x")
        except OSError:
            pass
        else:
            probe.unlink()
            target.chmod(0o755)
            pytest.skip("chmod cannot revoke writes here (root?)")
        yield target
        target.chmod(0o755)

    def test_cache_on_readonly_dir_degrades(self, readonly_dir):
        cache = ResultCache(readonly_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_grid(_tasks(), cache=cache)
        assert all(s is not None for s in result)
        assert cache.put_failures == 1
        assert any("cache writes failing" in str(w.message)
                   for w in caught)

    def test_stream_on_readonly_dir_disables(self, readonly_dir):
        writer = EventWriter(readonly_dir / "main.events.jsonl",
                             lane="main")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            writer.emit("task-start", "run")
        assert any("disabling the lane" in str(w.message)
                   for w in caught)

    def test_spool_result_on_readonly_dir_fails_atomically(
            self, tmp_path, readonly_dir):
        spool = Spool(tmp_path / "spool")
        spool.ensure()
        # Revoke writes on results/ only, with the same root guard.
        spool.results_dir.chmod(0o555)
        try:
            with pytest.raises(OSError):
                spool.write_result("k", index=0, attempt=1,
                                   worker="w", ok=False,
                                   error_type="Boom", message="ro")
            assert list(spool.results_dir.iterdir()) == []
        finally:
            spool.results_dir.chmod(0o755)
