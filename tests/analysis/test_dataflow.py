"""Adversarial shapes for the seam-ownership rules.

A call does not escape its owner by hiding where it comes from:
aliased imports, decorated wrappers, closures re-exported through
``__all__``, callables stashed in containers.  Each test feeds one
such shape through the full analyzer and asserts the rule fires on
the violating variant and stays silent on the sanctioned one, which
goes through the seam.
"""

from repro.analysis import Analyzer, default_checkers
from repro.analysis.config import AnalysisConfig


def _lint(source: str, path: str = "mod.py"):
    analyzer = Analyzer(default_checkers(), AnalysisConfig())
    return analyzer.analyze_source(source, path)


def _rules(source: str, path: str = "mod.py"):
    return {f.rule for f in _lint(source, path)}


class TestAliasedImports:
    def test_wall_clock_behind_module_alias(self):
        """``import time as clock`` must not launder time.time()."""
        source = (
            "import time as clock\n"
            "def lease(ttl):\n"
            "    deadline = clock.time() + ttl\n"
            "    return deadline\n"
        )
        assert "REP201" in _rules(source, "dist/spool.py")

    def test_from_import_alias(self):
        """``from time import time as now`` resolves the same."""
        source = (
            "from time import time as now\n"
            "def lease(ttl):\n"
            "    deadline = now() + ttl\n"
            "    return deadline\n"
        )
        assert "REP201" in _rules(source, "dist/spool.py")

    def test_monotonic_behind_alias_stays_clean(self):
        source = (
            "from time import monotonic as now\n"
            "def lease(ttl):\n"
            "    deadline = now() + ttl\n"
            "    return deadline\n"
        )
        assert "REP201" not in _rules(source, "dist/spool.py")


class TestDecoratedFunctions:
    SEALER = (
        "import functools\n"
        "from repro.guard.seal import seal\n"
        "def traced(fn):\n"
        "    @functools.wraps(fn)\n"
        "    def inner(*args, **kwargs):\n"
        "        return fn(*args, **kwargs)\n"
        "    return inner\n"
        "@traced\n"
        "def encode(payload):\n"
        "    return seal(payload, kind='x')\n"
    )

    def test_seal_reaches_through_decorated_wrapper(self):
        """A decorated sealer does not make its caller's raw write
        safe: the write sits outside the seam."""
        source = self.SEALER + (
            "def save(path, payload):\n"
            "    blob = encode(payload)\n"
            "    path.write_bytes(blob)\n"
        )
        findings = [f for f in _lint(source) if f.rule == "REP105"]
        assert [f.line for f in findings] == [13]

    def test_atomic_publish_of_decorated_seal_is_sanctioned(self):
        source = self.SEALER + (
            "from repro.guard.faults import publish_bytes\n"
            "def save(path, payload):\n"
            "    blob = encode(payload)\n"
            "    publish_bytes(path, blob)\n"
        )
        assert "REP105" not in _rules(source)


class TestReexportedClosures:
    def test_rooted_write_inside_closure_factory(self):
        """A closure built by a factory and re-exported via __all__
        still gets flagged for writing outside the seam."""
        source = (
            "__all__ = ['make_publisher']\n"
            "def make_publisher(results_dir):\n"
            "    def publish(key, blob):\n"
            "        path = results_dir / key\n"
            "        path.write_bytes(blob)\n"
            "    return publish\n"
        )
        findings = [f for f in _lint(source) if f.rule == "REP105"]
        assert findings, "closure write under results_dir missed"
        assert findings[0].line == 5

    def test_publishing_closure_is_sanctioned(self):
        source = (
            "__all__ = ['make_publisher']\n"
            "from repro.guard.faults import publish_bytes\n"
            "def make_publisher(results_dir):\n"
            "    def publish(key, blob):\n"
            "        publish_bytes(results_dir / key, blob)\n"
            "    return publish\n"
        )
        assert "REP105" not in _rules(source)


class TestContainerDispatch:
    def test_lambda_in_dict_submitted_to_run_grid(self):
        """In the worker, a grid entry hidden in a dispatch-dict
        lambda after the heartbeat thread starts is a fork-after-
        thread hazard; anywhere else the thread itself is flagged."""
        source = (
            "import threading\n"
            "from repro.exec.engine import run_grid\n"
            "def main(tasks, poll):\n"
            "    worker = threading.Thread(target=poll)\n"
            "    worker.start()\n"
            "    actions = {'go': lambda: run_grid(tasks)}\n"
            "    return actions['go']()\n"
        )
        findings = [f for f in _lint(source, "dist/worker.py")
                    if f.rule == "REP203"]
        assert [f.line for f in findings] == [6]
        findings = [f for f in _lint(source) if f.rule == "REP203"]
        assert [f.line for f in findings] == [4]

    def test_benign_dispatch_dict_stays_clean(self):
        source = (
            "import threading\n"
            "def main(tasks, poll):\n"
            "    worker = threading.Thread(target=poll)\n"
            "    worker.start()\n"
            "    actions = {'go': lambda: len(tasks)}\n"
            "    return actions['go']()\n"
        )
        assert "REP203" not in _rules(source, "dist/worker.py")
