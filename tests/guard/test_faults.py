"""Unit tests for the fault injector (``repro.guard.faults``).

* one grammar, ``action:index[:n[:seconds]]``, covers task and I/O
  faults, and a bad item is rejected *by name* before anything runs;
* schedules are **deterministic** — task faults fire by (task index,
  attempt), I/O faults by per-channel operation index; no wall clock,
  no randomness at fire time;
* the ``fired`` log, the install lifecycle and the once-per-process
  ``REPRO_FAULT_SPEC`` auto-install are shared by every channel.

The I/O channels' own contracts (their grammar, channel counters, torn
writes, publish atomicity) are in ``test_fsfault.py``; the task
channel's grammar and firing are in ``tests/exec/test_fault.py``.
"""

import pytest

from repro.guard import faults
from repro.guard.faults import (
    ALWAYS,
    Fault,
    FaultInjector,
    InjectedFault,
    injected,
    vfs_replace,
    vfs_write,
)

#: One task item and one I/O item: the spec item, the fault it parses
#: to, what firing it logs, and what firing it raises.
ITEMS = [
    pytest.param("raise:12:2", Fault("raise", 12, 2),
                 ("task", 12, "raise"), InjectedFault, id="task"),
    pytest.param("rename:0:3", Fault("rename", 0, 3),
                 ("rename", 0, "rename"), OSError, id="io"),
]

#: Malformed spec items and the reason each is rejected with.
BAD_ITEMS = [
    ("enospc", "expected action:index"),
    ("explode:3", "unknown action 'explode'"),
    ("raise:x", "index must be an integer"),
    ("raise:-1", "index must be >= 0"),
    ("eio:-1", "index must be >= 0"),
    ("raise:1:0", "n must be >= 1"),
    ("raise:1:twice", "n must be an integer"),
    ("kill:5:1:0.5:junk", "expected action:index"),
    ("kill:5:1:0.5", "kill takes no seconds"),
    ("rename:0:1:0.5", "rename takes no seconds"),
    ("delay:1:1:soon", "seconds must be a number"),
]


def _trigger(fault, tmp_path):
    """Perform the first cell or operation ``fault`` targets."""
    if fault.channel == "task":
        faults.active().fire(fault.index, 0)
    else:
        vfs_replace(tmp_path / "a", tmp_path / "b")


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultValidation:
    @pytest.mark.parametrize("action", ["raise", "enospc"])
    def test_negative_index_rejected(self, action):
        with pytest.raises(ValueError, match="index"):
            Fault(action, -1)

    @pytest.mark.parametrize("action", ["raise", "eio"])
    def test_zero_n_rejected(self, action):
        with pytest.raises(ValueError, match="n must be"):
            Fault(action, 0, 0)

    def test_seconds_only_on_sleeping_actions(self):
        assert Fault("delay", 0, seconds=0.5).seconds == 0.5
        assert Fault("stall", 0, seconds=2.0).seconds == 2.0
        for action in ("raise", "kill", "enospc", "rename"):
            with pytest.raises(ValueError, match="takes no seconds"):
                Fault(action, 0, seconds=0.5)

    def test_channel_mapping(self):
        expected = {
            "raise": "task", "delay": "task", "kill": "task",
            "interrupt": "task", "stall": "task",
            "enospc": "write", "eio": "write", "erofs": "write",
            "torn": "write", "fsync": "fsync", "rename": "rename",
        }
        assert {a: Fault(a, 0).channel for a in expected} == expected


class TestSpecParsing:
    @pytest.mark.parametrize("item, fault, logged, error", ITEMS)
    def test_item_parses(self, item, fault, logged, error):
        assert FaultInjector.from_spec(item).faults == [fault]

    def test_round_trip(self):
        spec = ("kill:5,raise:12:2,delay:20:1:0.25,stall:9:1:2.0,"
                "raise:9:always,enospc:5:10,torn:30,rename:2,"
                "fsync:0:always")
        injector = FaultInjector.from_spec(spec)
        assert injector.faults == [
            Fault("kill", 5), Fault("raise", 12, 2),
            Fault("delay", 20, 1, 0.25), Fault("stall", 9, 1, 2.0),
            Fault("raise", 9, ALWAYS), Fault("enospc", 5, 10),
            Fault("torn", 30), Fault("rename", 2),
            Fault("fsync", 0, ALWAYS),
        ]
        assert str(injector) == spec

    def test_whitespace_case_and_empty_items(self):
        injector = FaultInjector.from_spec(" EIO:1 ,, kill:3,")
        assert injector.faults == [Fault("eio", 1), Fault("kill", 3)]

    @pytest.mark.parametrize("item, reason", BAD_ITEMS,
                             ids=[item for item, _ in BAD_ITEMS])
    def test_bad_item_rejected_by_name(self, item, reason):
        with pytest.raises(ValueError) as err:
            FaultInjector.from_spec(f"kill:5,{item},raise:7")
        assert str(err.value).startswith(f"{item}: ")
        assert reason in str(err.value)


class TestFiring:
    @pytest.mark.parametrize("item, fault, logged, error", ITEMS)
    def test_fired_log_records_channel_index_action(
            self, tmp_path, item, fault, logged, error):
        with injected(FaultInjector.from_spec(item)) as injector:
            with pytest.raises(error):
                _trigger(fault, tmp_path)
        assert injector.fired == [logged]

    def test_always_fires_on_every_attempt(self):
        injector = FaultInjector([Fault("raise", 4, ALWAYS)])
        for attempt in range(5):
            with pytest.raises(InjectedFault):
                injector.fire(4, attempt)
        assert len(injector.fired) == 5

    def test_in_process_kill_degrades_to_injected_fault(self):
        injector = FaultInjector([Fault("kill", 0)])
        with pytest.raises(InjectedFault, match="in-process kill"):
            injector.fire(0, 0)

    def test_channels_are_independent(self, tmp_path):
        """A task fault never fires at the seam and an I/O fault never
        fires on a cell, even at the same index."""
        injector = FaultInjector.from_spec("raise:0,enospc:0")
        with injected(injector):
            with open(tmp_path / "f", "wb") as handle:
                with pytest.raises(OSError):
                    vfs_write(handle, b"x")
            with pytest.raises(InjectedFault):
                injector.fire(0, 0)
            vfs_replace(tmp_path / "f", tmp_path / "g")
        assert injector.fired == [("write", 0, "enospc"),
                                  ("task", 0, "raise")]



class TestHarvestChannel:
    """``crash`` is the distributed broker's one fault: it fires on the
    ``harvest`` channel, polled once per result about to be stored."""

    def test_crash_parses_onto_the_harvest_channel(self):
        injector = FaultInjector.from_spec("crash:30")
        assert injector.faults == [Fault("crash", 30)]
        assert injector.faults[0].channel == "harvest"
        assert str(injector) == "crash:30"

    def test_crash_fires_with_exactly_index_results_harvested(self):
        injector = FaultInjector.from_spec("crash:3")
        polls = [injector.poll("harvest") for _ in range(5)]
        assert polls == [None, None, None, "crash", None]
        assert injector.fired == [("harvest", 3, "crash")]

    def test_crash_never_fires_on_a_cell_or_at_the_seam(self, tmp_path):
        injector = FaultInjector.from_spec("crash:0")
        with injected(injector):
            injector.fire(0, 0)
            with open(tmp_path / "f", "wb") as handle:
                vfs_write(handle, b"x")
            vfs_replace(tmp_path / "f", tmp_path / "g")
        assert injector.fired == []

    def test_crash_takes_no_seconds(self):
        with pytest.raises(ValueError, match="takes no seconds"):
            FaultInjector.from_spec("crash:3:1:0.5")


class TestInstallation:
    @pytest.fixture
    def fresh_env(self, monkeypatch):
        """A process that has not consulted ``REPRO_FAULT_SPEC`` yet."""
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        return monkeypatch

    @pytest.mark.parametrize("item, fault, logged, error", ITEMS)
    def test_install_uninstall(self, item, fault, logged, error):
        inj = FaultInjector.from_spec(item)
        faults.install(inj)
        assert faults.active() is inj
        faults.uninstall()
        assert faults.active() is None
        with injected(inj):
            assert faults.active() is inj
        assert faults.active() is None

    @pytest.mark.parametrize("item, fault, logged, error", ITEMS)
    def test_env_spec_auto_installs_once(self, fresh_env, item, fault,
                                         logged, error):
        fresh_env.setenv(faults.ENV_VAR, item)
        inj = faults.active()
        assert inj is not None and inj.faults == [fault]
        assert faults.active() is inj
        # The env is consulted once: uninstall wins afterwards.
        faults.uninstall()
        assert faults.active() is None

    def test_bad_env_spec_raises_until_fixed(self, fresh_env):
        fresh_env.setenv(faults.ENV_VAR, "raise:-1")
        for _ in range(2):
            with pytest.raises(ValueError, match="raise:-1"):
                faults.active()
        fresh_env.delenv(faults.ENV_VAR)
        assert faults.active() is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.from_env() is None
        monkeypatch.setenv(faults.ENV_VAR, "kill:5,rename:0:3")
        assert str(faults.from_env()) == "kill:5,rename:0:3"
