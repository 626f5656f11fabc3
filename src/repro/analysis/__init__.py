"""Determinism & protocol static analysis for this repository.

The execution engine (:mod:`repro.exec`) promises bit-identical
results across serial, parallel, cached, fault-injected and resumed
runs.  Runtime acceptance tests *demonstrate* that property;
``repro.analysis`` makes it *reviewable*: an AST-based pass that
flags the code patterns which historically break it — unseeded
randomness, wall-clock reads, iteration over unordered collections,
closures shipped to fork workers, mutable defaults, undeclared
environment inputs, and exception handlers broad enough to eat a
``KeyboardInterrupt`` (REP001–REP007) — plus the flow-aware
protocol rules guarding the artifact and distribution layers:
checked sealed reads, canonical cache keys (REP102–REP103),
writes through the fault-injectable seam (REP105), monotonic lease
math, lock-window discipline, fork/thread ordering and sanctioned
process control (REP201–REP204), and the stale-suppression audit (REP008).  All
rules are documented in ``docs/analysis.md``.

Run it as ``python -m repro.analysis [paths]`` or ``repro lint``;
silence a sanctioned violation with an inline
``# repro: noqa[REPnnn] -- reason`` comment, absorb a legacy tree
with ``--baseline``, lint only what changed with ``--diff REF``,
clean out stale suppressions with ``--fix-unused-noqa``, emit
code-host-ready reports with ``--format sarif``, and configure the
pass under ``[tool.repro.analysis]`` in ``pyproject.toml``.  CI
runs the pass over ``src/repro`` on every push and fails on any
live finding.

Programmatic use::

    from repro.analysis import Analyzer, default_checkers

    result = Analyzer(default_checkers()).analyze_paths(["src/repro"])
    assert result.clean, [f.render() for f in result.findings]

This package is dependency-free on purpose (standard library only,
no NumPy), so the CI lint job runs on a bare interpreter.
"""

from .checkers import (
    ALL_CHECKERS,
    EntropySource,
    EnvironRead,
    ExceptionSwallow,
    ForkSafety,
    MutableDefault,
    UnorderedIteration,
    UnseededRandomness,
    default_checkers,
)
from .cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from .config import (
    AnalysisConfig,
    ConfigError,
    load_baseline,
    load_config,
    write_baseline,
)
from .core import (
    Analyzer,
    AnalysisResult,
    Checker,
    FileContext,
    UnusedNoqa,
    fix_unused_noqa,
)
from .findings import Finding, Severity
from .reporters import render_json, render_sarif, render_text

__all__ = [
    "ALL_CHECKERS",
    "AnalysisConfig",
    "AnalysisResult",
    "Analyzer",
    "Checker",
    "ConfigError",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "EntropySource",
    "EnvironRead",
    "ExceptionSwallow",
    "FileContext",
    "Finding",
    "ForkSafety",
    "MutableDefault",
    "Severity",
    "UnorderedIteration",
    "UnseededRandomness",
    "UnusedNoqa",
    "default_checkers",
    "fix_unused_noqa",
    "load_baseline",
    "load_config",
    "main",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]
