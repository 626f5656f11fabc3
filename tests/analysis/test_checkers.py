"""Per-checker fixtures: one detection and one clean pass per rule.

Each REP0xx rule is exercised on minimal positive snippets (the
hazard, detected) and negative snippets (the sanctioned idiom, not
flagged) — the acceptance contract for the whole suite.
"""

import textwrap

from repro.analysis import AnalysisConfig, Analyzer, default_checkers


def findings(source, config=None):
    analyzer = Analyzer(default_checkers(), config)
    return analyzer.analyze_source(textwrap.dedent(source), "snippet.py")


def rules(source, config=None):
    return [f.rule for f in findings(source, config)]


class TestREP001UnseededRandomness:
    def test_module_level_random_call(self):
        assert rules("""
            import random
            x = random.random()
        """) == ["REP001"]

    def test_numpy_global_rng(self):
        assert rules("""
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
        """) == ["REP001", "REP001"]

    def test_argless_default_rng(self):
        assert rules("""
            import numpy as np
            rng = np.random.default_rng()
        """) == ["REP001"]

    def test_argless_random_constructor(self):
        assert rules("""
            import random
            r = random.Random()
        """) == ["REP001"]

    def test_seeded_generators_are_clean(self):
        assert rules("""
            import random
            import numpy as np
            r = random.Random(7)
            rng = np.random.default_rng(1234)
            legacy = np.random.RandomState(42)
            x = r.random() + rng.random()
        """) == []

    def test_from_import_default_rng(self):
        assert rules("""
            from numpy.random import default_rng
            rng = default_rng()
        """) == ["REP001"]


class TestREP002EntropySource:
    def test_wall_clock(self):
        # REP201 also fires: the wall clock belongs to obs/clock.py.
        assert rules("""
            import time
            stamp = time.time()
        """) == ["REP002", "REP201"]

    def test_uuid4_via_from_import(self):
        assert rules("""
            from uuid import uuid4
            run_id = uuid4()
        """) == ["REP002"]

    def test_os_urandom(self):
        assert rules("""
            import os
            salt = os.urandom(8)
        """) == ["REP002"]

    def test_monotonic_clock_is_clean(self):
        assert rules("""
            import time
            deadline = time.monotonic() + 5
            time.sleep(0.01)
        """) == []

    def test_allowlist_sanctions_a_call(self):
        # The allowlist exempts the call from REP002 only; the seam
        # table (REP201) still confines it to obs/clock.py.
        config = AnalysisConfig(allow_calls={"time.time"})
        assert rules("""
            import time
            stamp = time.time()
        """, config) == ["REP201"]


class TestREP003UnorderedIteration:
    def test_for_over_set_call(self):
        assert rules("""
            def total(xs):
                acc = 0.0
                for x in set(xs):
                    acc += x
                return acc
        """) == ["REP003"]

    def test_sum_over_set(self):
        assert rules("""
            def total(xs):
                return sum(set(xs))
        """) == ["REP003"]

    def test_comprehension_over_glob(self):
        assert rules("""
            def stems(path):
                return [f.stem for f in path.glob("*.pkl")]
        """) == ["REP003"]

    def test_join_over_set_literal(self):
        assert rules("""
            def label(a, b):
                return ",".join({a, b})
        """) == ["REP003"]

    def test_sorted_wrapping_is_clean(self):
        assert rules("""
            def total(xs, path):
                acc = sum(sorted(set(xs)))
                for f in sorted(path.glob("*.pkl")):
                    acc += 1
                return acc
        """) == []

    def test_order_insensitive_reductions_are_clean(self):
        assert rules("""
            def describe(xs):
                return len(set(xs)), min(set(xs)), max(set(xs))
        """) == []


class TestREP004ForkSafety:
    def test_lambda_to_executor(self):
        assert rules("""
            def launch(run_grid, tasks):
                run_grid(tasks, progress=lambda d, t: None)
        """) == ["REP004"]

    def test_closure_to_executor(self):
        assert rules("""
            def launch(pool, item):
                def work():
                    return item
                pool.submit(work)
        """) == ["REP004"]

    def test_bound_method_to_executor(self):
        assert rules("""
            class Driver:
                def go(self, pool):
                    pool.submit(self.step, 1)
        """) == ["REP004"]

    def test_global_rebinding(self):
        assert rules("""
            STATE = 0

            def bump():
                global STATE
                STATE += 1
        """) == ["REP004"]

    def test_module_level_function_is_clean(self):
        assert rules("""
            def work(x):
                return x

            def launch(pool):
                pool.submit(work, 1)
        """) == []

    def test_plain_calls_not_flagged(self):
        assert rules("""
            def compute(transform, xs):
                return transform(xs, key=lambda x: x)
        """) == []


class TestREP005MutableDefault:
    def test_list_default(self):
        assert rules("""
            def collect(x, acc=[]):
                acc.append(x)
                return acc
        """) == ["REP005"]

    def test_dict_and_set_call_defaults(self):
        assert rules("""
            def f(m={}, s=set()):
                return m, s
        """) == ["REP005", "REP005"]

    def test_none_default_is_clean(self):
        assert rules("""
            def collect(x, acc=None, shape=()):
                acc = [] if acc is None else acc
                acc.append(x)
                return acc
        """) == []


class TestREP006EnvironRead:
    def test_environ_get(self):
        assert rules("""
            import os
            level = os.environ.get("REPRO_LOG")
        """) == ["REP006"]

    def test_environ_subscript(self):
        assert rules("""
            import os
            level = os.environ["REPRO_LOG"]
        """) == ["REP006"]

    def test_getenv(self):
        assert rules("""
            import os
            level = os.getenv("REPRO_LOG")
        """) == ["REP006"]

    def test_from_import_environ(self):
        assert rules("""
            from os import environ
            level = environ.get("REPRO_LOG")
        """) == ["REP006"]

    def test_explicit_configuration_is_clean(self):
        assert rules("""
            def configure(level):
                return {"level": level}
        """) == []


class TestREP007ExceptionSwallow:
    def test_bare_except(self):
        assert rules("""
            def f(x):
                try:
                    return x()
                except:
                    return None
        """) == ["REP007"]

    def test_base_exception_without_reraise(self):
        assert rules("""
            def f(x):
                try:
                    return x()
                except BaseException:
                    return None
        """) == ["REP007"]

    def test_silent_exception_pass(self):
        assert rules("""
            def f(x):
                try:
                    return x()
                except Exception:
                    pass
        """) == ["REP007"]

    def test_reraise_is_clean(self):
        assert rules("""
            def f(x):
                try:
                    return x()
                except BaseException:
                    cleanup()
                    raise
        """) == []

    def test_narrow_handler_is_clean(self):
        assert rules("""
            def f(x):
                try:
                    return x()
                except (OSError, ValueError) as exc:
                    return str(exc)
        """) == []


class TestSuppressions:
    def test_noqa_silences_listed_rule(self):
        assert rules("""
            import os
            level = os.getenv("X")  # repro: noqa[REP006] -- CLI entry
        """) == []

    def test_noqa_other_rule_does_not_silence(self):
        # The live REP006 still reports, and the suppression naming
        # the wrong rule is itself flagged stale (REP008).
        assert rules("""
            import os
            level = os.getenv("X")  # repro: noqa[REP001] -- wrong rule
        """) == ["REP006", "REP008"]

    def test_bare_noqa_silences_everything(self):
        assert rules("""
            import os, time
            x = os.getenv("X") and time.time()  # repro: noqa
        """) == []

    def test_multi_rule_noqa(self):
        assert rules("""
            import os, time
            x = os.getenv("X") and time.time()  # repro: noqa[REP002,REP006,REP201]
        """) == []
