"""Configuration and baseline support for the analysis pass.

Configuration lives in TOML under ``[tool.repro.analysis]`` —
normally in the project's ``pyproject.toml``, discovered by walking
up from the analyzed tree, or in an explicit ``--config`` file (where
both the tool table and top-level keys are accepted).  Keys:

``select`` / ``ignore``
    Rule codes to run / to drop (``select`` empty means "all").
``exclude``
    Glob patterns of paths to skip entirely.
``allow_calls``
    Dotted call names exempted from the entropy-source rule (REP002)
    — the sanctioned-call allowlist, e.g. ``"time.monotonic"``.
``executors``
    Extra callable names treated as worker-executing entry points by
    the fork-safety rule (REP004), on top of the built-ins
    (``run_grid``, ``Process``, ``submit``, ...).

A **baseline** is a JSON file of finding fingerprints (see
:meth:`~repro.analysis.findings.Finding.fingerprint`).  Findings
whose fingerprint appears in the baseline are reported as absorbed,
not live — the standard adoption path for a legacy tree: write a
baseline once, gate on *new* findings immediately, burn the baseline
down over time.  This repository's own tree ships with no baseline:
it is clean by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on <=3.10
    tomllib = None

from .findings import Finding

#: Name of the TOML table holding analysis settings.
CONFIG_TABLE = ("tool", "repro", "analysis")


class ConfigError(ValueError):
    """Unreadable or ill-typed configuration (CLI exit status 2)."""


@dataclass
class AnalysisConfig:
    """Parsed analysis settings with sane defaults."""

    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    allow_calls: Set[str] = field(default_factory=set)
    executors: Set[str] = field(default_factory=set)

    def selected_rules(self, known: Sequence[str]) -> Set[str]:
        """The rule codes to run, validating against ``known``."""
        unknown = (set(self.select) | set(self.ignore)) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        rules = set(self.select) if self.select else set(known)
        return rules - set(self.ignore)

    def excludes(self, path: Path) -> bool:
        """True if ``path`` matches any exclusion glob."""
        text = path.as_posix()
        return any(
            fnmatch(text, pattern) or fnmatch(path.name, pattern)
            for pattern in self.exclude
        )


def _coerce(table: dict) -> AnalysisConfig:
    config = AnalysisConfig()
    for key in ("select", "ignore", "exclude"):
        value = table.get(key, [])
        if not isinstance(value, list) or \
                not all(isinstance(v, str) for v in value):
            raise ConfigError(f"'{key}' must be a list of strings")
        setattr(config, key, list(value))
    for key in ("allow_calls", "executors"):
        value = table.get(key, [])
        if not isinstance(value, list) or \
                not all(isinstance(v, str) for v in value):
            raise ConfigError(f"'{key}' must be a list of strings")
        setattr(config, key, set(value))
    known = {"select", "ignore", "exclude", "allow_calls", "executors"}
    unknown = set(table) - known
    if unknown:
        raise ConfigError(
            f"unknown config key(s): {', '.join(sorted(unknown))}"
        )
    return config


def _tool_table(data: dict) -> Optional[dict]:
    """The ``[tool.repro.analysis]`` table of a parsed document."""
    node = data
    for part in CONFIG_TABLE:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, dict) else None


def load_config(explicit: Optional[Path] = None,
                start: Optional[Path] = None) -> AnalysisConfig:
    """Load settings from ``explicit`` or by pyproject discovery.

    With ``explicit``, the file must parse; its ``[tool.repro.analysis]``
    table is used if present, else its top-level keys.  Otherwise the
    ancestors of ``start`` (default: cwd) are searched for a
    ``pyproject.toml`` carrying the table; absence of both yields
    defaults.
    """
    if tomllib is None:  # pragma: no cover - exercised only on <=3.10
        return AnalysisConfig()
    if explicit is not None:
        try:
            data = tomllib.loads(
                Path(explicit).read_text(encoding="utf-8")
            )
        except (OSError, tomllib.TOMLDecodeError) as exc:
            raise ConfigError(f"cannot load config {explicit}: {exc}")
        table = _tool_table(data)
        return _coerce(table if table is not None else data)
    probe = (Path(start) if start is not None else Path(".")).resolve()
    for directory in (probe, *probe.parents):
        pyproject = directory / "pyproject.toml"
        if not pyproject.is_file():
            continue
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return AnalysisConfig()
        table = _tool_table(data)
        if table is not None:
            return _coerce(table)
        return AnalysisConfig()
    return AnalysisConfig()


# -- baselines ------------------------------------------------------

BASELINE_VERSION = 1


def write_baseline(findings: Iterable[Finding], path: Path) -> int:
    """Write the findings' fingerprints as a baseline; returns count."""
    prints = sorted({f.fingerprint() for f in findings})
    payload = {"version": BASELINE_VERSION, "fingerprints": prints}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(prints)


def load_baseline(path: Path) -> Set[str]:
    """The fingerprint set of a baseline file (strict about shape)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load baseline {path}: {exc}")
    if not isinstance(payload, dict) or \
            payload.get("version") != BASELINE_VERSION or \
            not isinstance(payload.get("fingerprints"), list):
        raise ConfigError(
            f"baseline {path} is not a version-{BASELINE_VERSION} "
            "repro.analysis baseline"
        )
    return set(payload["fingerprints"])
