"""Adversarial shapes for the flow/call-graph layer.

The protocol rules only earn their zero-false-positive calibration if
the underlying dataflow survives code that *obscures* where values
come from: aliased imports, decorated wrappers, closures re-exported
through ``__all__``, callables stashed in containers.  Each test here
feeds one such shape through the full analyzer and asserts the rule
still fires (or stays silent on the sanctioned variant) — plus a few
direct probes of :class:`FunctionFlow` / :class:`PackageIndex` where
the interesting property is the machinery itself.
"""

import ast

from repro.analysis import Analyzer, default_checkers
from repro.analysis.callgraph import PackageIndex, module_name_for
from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import FunctionFlow, walk_scope


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
        assert "REP201" in _rules(source)

    def test_from_import_alias(self):
        """``from time import time as now`` resolves the same."""
        source = (
            "from time import time as now\n"
            "def lease(ttl):\n"
            "    deadline = now() + ttl\n"
            "    return deadline\n"
        )
        assert "REP201" in _rules(source)

    def test_monotonic_behind_alias_stays_clean(self):
        source = (
            "from time import monotonic as now\n"
            "def lease(ttl):\n"
            "    deadline = now() + ttl\n"
            "    return deadline\n"
        )
        assert "REP201" not in _rules(source)


class TestDecoratedFunctions:
    SEALER = (
        "import functools\n"
        "import os\n"
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
        """A decorated local sealer still marks its result sealed —
        the index records the function, decorators and all."""
        source = self.SEALER + (
            "def save(path, payload):\n"
            "    blob = encode(payload)\n"
            "    path.write_bytes(blob)\n"
        )
        assert "REP105" in _rules(source)

    def test_atomic_publish_of_decorated_seal_is_sanctioned(self):
        source = self.SEALER + (
            "from repro.guard.faults import vfs_replace\n"
            "def save(path, payload):\n"
            "    blob = encode(payload)\n"
            "    tmp = path.with_name(path.name + '.tmp')\n"
            "    tmp.write_bytes(blob)\n"
            "    vfs_replace(tmp, path)\n"
        )
        assert "REP105" not in _rules(source)


class TestReexportedClosures:
    def test_rooted_write_inside_closure_factory(self):
        """A closure built by a factory and re-exported via __all__
        still gets flagged for writing under an artifact root."""
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
            "from repro.guard.faults import vfs_replace\n"
            "def make_publisher(results_dir):\n"
            "    def publish(key, blob):\n"
            "        tmp = results_dir / (key + '.tmp')\n"
            "        tmp.write_bytes(blob)\n"
            "        vfs_replace(tmp, results_dir / key)\n"
            "    return publish\n"
        )
        assert "REP105" not in _rules(source)


class TestContainerDispatch:
    def test_lambda_in_dict_submitted_to_run_grid(self):
        """A fork primitive hidden in a dispatch-dict lambda is still
        a fork-after-thread hazard when invoked."""
        source = (
            "import threading\n"
            "from repro.exec.engine import run_grid\n"
            "def main(tasks, poll):\n"
            "    worker = threading.Thread(target=poll)\n"
            "    worker.start()\n"
            "    actions = {'go': lambda: run_grid(tasks)}\n"
            "    return actions['go']()\n"
        )
        findings = [f for f in _lint(source) if f.rule == "REP203"]
        assert findings, "dict-dispatched run_grid missed"
        assert findings[0].line == 7

    def test_benign_dispatch_dict_stays_clean(self):
        source = (
            "import threading\n"
            "def main(tasks, poll):\n"
            "    worker = threading.Thread(target=poll)\n"
            "    worker.start()\n"
            "    actions = {'go': lambda: len(tasks)}\n"
            "    return actions['go']()\n"
        )
        assert "REP203" not in _rules(source)


class TestFlowPrimitives:
    def _flow(self, source: str, fname: str) -> FunctionFlow:
        tree = ast.parse(source)
        fn = next(
            n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == fname
        )
        return FunctionFlow(fn, lambda call: None)

    def test_origins_cross_tuple_unpacking(self):
        flow = self._flow(
            "def f():\n"
            "    a, b = make(), other()\n"
            "    c = a\n"
            "    return c\n",
            "f",
        )
        ret = flow.scope.body[-1].value
        names = {
            n.id for n in flow.origin_nodes(ret)
            if isinstance(n, ast.Name)
        }
        assert "a" in names

    def test_scope_walk_skips_nested_bodies(self):
        """walk_scope must not leak a nested function's statements
        into its parent — REP2xx windows are per-scope."""
        tree = ast.parse(
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
            "    return inner\n"
        )
        outer = tree.body[0]
        assigned = {
            t.id for n in walk_scope(outer)
            if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name)
        }
        assert assigned == {"x"}


class TestPackageIndex:
    def test_relative_import_resolves_across_modules(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "seal.py").write_text(
            "def make_seal(blob):\n    return blob\n"
        )
        (pkg / "io.py").write_text(
            "from .seal import make_seal\n"
            "def encode(payload):\n"
            "    return make_seal(payload)\n"
        )
        index = PackageIndex.from_paths(
            [pkg / "seal.py", pkg / "io.py"]
        )
        info = index.lookup("pkg.io.encode")
        assert info is not None
        hit = {}
        assert index.reaches(
            info, lambda name: name.endswith("make_seal"), hit
        )

    def test_module_name_climbs_init_chain(self, tmp_path):
        pkg = tmp_path / "a" / "b"
        pkg.mkdir(parents=True)
        (tmp_path / "a" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(pkg / "mod.py") == "a.b.mod"

    def test_method_resolution_within_class(self):
        source = (
            "class Spool:\n"
            "    def _encode(self, payload):\n"
            "        return payload\n"
            "    def write(self, payload):\n"
            "        return self._encode(payload)\n"
        )
        index = PackageIndex.from_trees(
            [("spool", ast.parse(source), None)]
        )
        info = index.lookup("spool.Spool.write")
        assert info is not None
        resolved = [name for _, name in info.calls]
        assert "spool.Spool._encode" in resolved
