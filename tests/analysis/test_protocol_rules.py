"""Gate-bite tests for the REP1xx/REP2xx protocol rules.

Each test plants exactly one protocol violation in a fixture copy of
the *real* protocol code (``dist/spool.py``, ``exec/cache.py``,
``exec/journal.py``, ``dist/worker.py``) and asserts the lint names
it — correct rule ID, correct file, correct line.  This is the
mutation-style acceptance check from the PR issue: the rules must
bite on the exact code they were written to defend, not only on toy
snippets.  Each mutation's sibling assertion — that the *unmutated*
source is clean — pins the zero-false-positive contract on the same
files.
"""

from pathlib import Path

import repro
from repro.analysis import Analyzer, default_checkers, load_config

SRC = Path(repro.__file__).resolve().parent


def _analyzer():
    return Analyzer(default_checkers(), load_config(start=SRC))


def _lint(source: str, path: str):
    return _analyzer().analyze_source(source, path)


def _mutate(relpath: str, old: str, new: str):
    """(original, mutated, 1-based line of the first mutated line)."""
    source = (SRC / relpath).read_text()
    assert old in source, f"{relpath} drifted: mutation anchor gone"
    mutated = source.replace(old, new, 1)
    assert mutated != source
    line = source[:source.index(old)].count("\n") + 1
    return source, mutated, line


def _rules(findings):
    return [f.rule for f in findings]


class TestArtifactIntegrityGateBites:
    def test_rep105_direct_cache_entry_write(self):
        """Dropping cache.put's seam publish for a direct write
        publishes torn entries; REP105 must name the write."""
        old = (
            "            faults.publish_bytes(self._file(key), blob)\n"
        )
        new = (
            "            self._file(key).write_bytes(blob)\n"
        )
        source, mutated, line = _mutate("exec/cache.py", old, new)
        assert "REP105" not in _rules(_lint(source, "exec/cache.py"))
        hits = [f for f in _lint(mutated, "exec/cache.py")
                if f.rule == "REP105"]
        assert hits, "REP105 missed the in-place sealed write"
        assert hits[0].path == "exec/cache.py"
        assert hits[0].line == line

    def test_rep105_spool_write_atomic_gutted(self):
        """Replacing Spool._write_atomic's seam publish with a plain
        write breaks every artifact the spool publishes (the sealed
        payload arrives via the blob parameter — caller propagation
        must still see it)."""
        old = "        faults.publish_bytes(path, blob, retries=2)\n"
        new = "        path.write_bytes(blob)\n"
        source, mutated, line = _mutate("dist/spool.py", old, new)
        assert "REP105" not in _rules(_lint(source, "dist/spool.py"))
        hits = [f for f in _lint(mutated, "dist/spool.py")
                if f.rule == "REP105"]
        assert hits, "REP105 missed the gutted atomic-write helper"
        assert hits[0].line == line

    def test_rep105_open_coded_atomic_dance(self):
        """An open-coded mkstemp-style temp+replace is *atomic* but
        invisible to fault injection; REP105 must flag its write and
        nothing else, demanding the fault-injectable seam."""
        old = "        faults.publish_bytes(path, blob, retries=2)\n"
        new = (
            "        tmp = path.parent / "
            "f\"{path.name}.tmp-{os.getpid()}\"\n"
            "        tmp.write_bytes(blob)\n"
            "        os.replace(tmp, path)\n"
        )
        source, mutated, line = _mutate("dist/spool.py", old, new)
        clean = _rules(_lint(source, "dist/spool.py"))
        assert "REP105" not in clean
        findings = _lint(mutated, "dist/spool.py")
        assert _rules(findings) == ["REP105"], \
            "the open-coded dance is atomic; only REP105 should bite"
        assert findings[0].line == line + 1  # the write_bytes line

    def test_rep102_read_result_skips_decode(self):
        """Parsing a sealed .result without the check-wrapping
        _decode trusts torn files; REP102 must name the loads call."""
        old = (
            "        payload = _decode(blob, kind=RESULT_KIND, "
            "version=self.version)\n"
        )
        new = (
            "        payload = json.loads(blob.decode(\"utf-8\"))\n"
        )
        source, mutated, line = _mutate("dist/spool.py", old, new)
        assert "REP102" not in _rules(_lint(source, "dist/spool.py"))
        hits = [f for f in _lint(mutated, "dist/spool.py")
                if f.rule == "REP102"]
        assert hits, "REP102 missed the unchecked sealed read"
        assert hits[0].line == line

    def test_rep103_task_key_without_canonical_blob(self):
        """Hashing plain json.dumps instead of canonical_blob makes
        the cache key insertion-order dependent; REP103 must fire."""
        old = ("    return hashlib.sha256("
               "canonical_blob(payload)).hexdigest()\n")
        new = ("    return hashlib.sha256(json.dumps(payload)"
               ".encode(\"utf-8\")).hexdigest()\n")
        source, mutated, line = _mutate("exec/cache.py", old, new)
        assert "REP103" not in _rules(_lint(source, "exec/cache.py"))
        hits = [f for f in _lint("import json\n" + mutated,
                                 "exec/cache.py")
                if f.rule == "REP103"]
        assert hits, "REP103 missed the noncanonical key hash"
        assert hits[0].line == line + 1  # the prepended import


class TestConcurrencyGateBites:
    def test_rep201_wall_clock_lease_deadline(self):
        """write_lease computing its deadline from time.time() is the
        NTP-step lease bug; REP201 must name the assignment."""
        old = "        deadline = time.monotonic() + float(ttl)\n"
        new = "        deadline = time.time() + float(ttl)\n"
        source, mutated, line = _mutate("dist/spool.py", old, new)
        assert "REP201" not in _rules(_lint(source, "dist/spool.py"))
        hits = [f for f in _lint(mutated, "dist/spool.py")
                if f.rule == "REP201"]
        assert hits, "REP201 missed the wall-clock lease deadline"
        assert any(f.line == line for f in hits)

    def test_rep202_sleep_under_journal_flock(self):
        """A sleep inside the journal's exclusive flock window stalls
        every concurrent writer; REP202 must name the sleep."""
        old = (
            "                    faults.vfs_write(self._handle, data)\n"
        )
        new = (
            "                    faults.vfs_write(self._handle, data)\n"
            "                    time.sleep(0.01)\n"
        )
        source, mutated, line = _mutate("exec/journal.py", old, new)
        assert "REP202" not in _rules(
            _lint(source, "exec/journal.py"))
        mutated = "import time\n" + mutated
        hits = [f for f in _lint(mutated, "exec/journal.py")
                if f.rule == "REP202"]
        assert hits, "REP202 missed the sleep under flock"
        assert hits[0].line == line + 2  # import + write line above

    def test_rep203_fork_after_heartbeat_thread(self):
        """Forking after the worker's heartbeat thread starts would
        freeze its locks in the child; REP203 must name the fork."""
        old = (
            "        thread.start()\n"
            "        last_work = time.monotonic()\n"
        )
        new = (
            "        thread.start()\n"
            "        os.fork()\n"
            "        last_work = time.monotonic()\n"
        )
        source, mutated, line = _mutate("dist/worker.py", old, new)
        assert "REP203" not in _rules(_lint(source, "dist/worker.py"))
        hits = [f for f in _lint(mutated, "dist/worker.py")
                if f.rule == "REP203"]
        assert hits, "REP203 missed the post-thread fork"
        assert hits[0].line == line + 1  # the inserted os.fork()

    def test_rep204_exit_on_the_happy_path(self):
        """os._exit on a normal completion path skips the release and
        the journal flush; REP204 must name it (the sanctioned chaos
        hooks are suppressed with reasons, this one is not)."""
        old = (
            "        self.executed += 1\n"
            "        self.spool.release(key, self.worker_id)\n"
        )
        new = (
            "        self.executed += 1\n"
            "        os._exit(3)\n"
            "        self.spool.release(key, self.worker_id)\n"
        )
        source, mutated, line = _mutate("dist/worker.py", old, new)
        assert "REP204" not in _rules(_lint(source, "dist/worker.py"))
        hits = [f for f in _lint(mutated, "dist/worker.py")
                if f.rule == "REP204"]
        assert hits, "REP204 missed the unsanctioned os._exit"
        assert hits[0].line == line + 1


class TestProtocolCodeStaysClean:
    """The real protocol files under the full armed suite — the
    calibration half of the gate-bite contract."""

    def test_protocol_modules_report_nothing(self):
        analyzer = _analyzer()
        result = analyzer.analyze_paths(
            [SRC / "dist", SRC / "exec", SRC / "guard"],
            root=SRC.parent,
        )
        assert result.clean, "\n".join(
            f.render() for f in result.findings
        )
