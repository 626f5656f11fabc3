"""Opt-in per-phase profiling for engine runs.

``repro <cmd> --profile DIR`` arms a :class:`PhaseProfiler` on the
run's :class:`~repro.obs.telemetry.Telemetry`; every coarse engine
phase (``pb-design``, ``grid``, ``pb-analyze``, ``enhance-before``,
...) then executes under :mod:`cProfile` and dumps two artifacts per
phase into ``DIR``:

* ``<phase>.pstats`` — the raw stats file, for ``python -m pstats`` or
  snakeviz;
* ``<phase>.collapsed.txt`` — collapsed-stack text (one
  ``caller;callee count`` line per edge, counts in microseconds of
  cumulative time), directly consumable by ``flamegraph.pl`` and
  speedscope.  This is a *two-frame edge* collapse derived from the
  pstats caller table, not a full stack reconstruction — cProfile does
  not retain whole stacks — which is the standard fidelity for
  pstats-sourced flamegraphs.

Design constraints:

* **cProfile cannot nest** — a second ``enable()`` while one profiler
  runs raises.  Engine phases do nest (``grid`` inside a CLI command
  span), so the profiler captures only the *outermost* active phase
  and counts the inner ones as part of it (a depth guard, not an
  error).
* **Profiling is observational** — any failure to enable (another
  profiler active, e.g. under coverage tooling) or to write artifacts
  warns once and disables capture; the run continues.
* Artifacts are written tmp + :func:`os.replace`, the repository's
  publish discipline, so a crash mid-dump never leaves a torn
  ``.pstats`` behind.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.guard import faults

__all__ = ["PhaseProfiler", "collapsed_stacks"]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "phase"


def _frame(func) -> str:
    filename, lineno, name = func
    if filename == "~":
        return name  # builtins print as "<built-in ...>" already
    return f"{Path(filename).name}:{lineno}:{name}"


def collapsed_stacks(stats: pstats.Stats) -> List[str]:
    """``caller;callee microseconds`` lines from a pstats table.

    Sorted for determinism of *shape* (the counts are wall time and
    vary run to run).  Root frames — functions with no recorded
    caller — appear as single-frame lines carrying their total time.
    """
    lines: List[str] = []
    for func, (cc, nc, tt, ct, callers) in stats.stats.items():
        callee = _frame(func)
        if callers:
            for caller, (ccc, cnc, ctt, cct) in callers.items():
                lines.append(
                    f"{_frame(caller)};{callee} "
                    f"{max(1, int(round(cct * 1e6)))}"
                )
        else:
            lines.append(f"{callee} {max(1, int(round(ct * 1e6)))}")
    return sorted(lines)


class PhaseProfiler:
    """Captures one cProfile per outermost telemetry phase.

    Parameters
    ----------
    directory:
        Where ``<phase>.pstats`` / ``<phase>.collapsed.txt`` land;
        created on first dump.  Repeated phase names (two grids in an
        enhancement analysis) get ``-2``, ``-3``... suffixes so no
        capture overwrites an earlier one.
    """

    def __init__(self, directory: Union[str, os.PathLike]):
        self.directory = Path(directory)
        self._depth = 0
        self._disabled = False
        self._warned = False
        self._names: Dict[str, int] = {}
        #: ``phase name -> [pstats path, collapsed path]`` for every
        #: successful capture, recorded into the run manifest.
        self.captures: Dict[str, List[str]] = {}

    def _disable(self, exc: BaseException) -> None:
        self._disabled = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"phase profiling failed ({type(exc).__name__}: {exc});"
                " disabling capture — the run continues unprofiled",
                RuntimeWarning, stacklevel=4,
            )

    @contextmanager
    def phase(self, name: str):
        """Profile ``name`` if it is the outermost active phase."""
        if self._disabled or self._depth > 0:
            # Inner phases run inside the outer capture; cProfile
            # cannot nest, so they are attributed to their parent.
            self._depth += 1
            try:
                yield None
            finally:
                self._depth -= 1
            return
        profiler = cProfile.Profile()
        try:
            profiler.enable()
        except (ValueError, RuntimeError) as exc:
            # Another profiler (coverage, an outer cProfile) owns the
            # hook; degrade to no capture rather than abort the run.
            self._disable(exc)
            yield None
            return
        self._depth += 1
        try:
            yield profiler
        finally:
            self._depth -= 1
            try:
                profiler.disable()
                self._dump(name, profiler)
            except Exception as exc:  # observational profiler: a failed dump disables capture instead of aborting the run
                self._disable(exc)

    def _unique_slug(self, name: str) -> str:
        slug = _slug(name)
        seen = self._names.get(slug, 0) + 1
        self._names[slug] = seen
        return slug if seen == 1 else f"{slug}-{seen}"

    def _dump(self, name: str, profiler: cProfile.Profile) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        slug = self._unique_slug(name)
        stats_path = self.directory / f"{slug}.pstats"
        collapsed_path = self.directory / f"{slug}.collapsed.txt"

        # cProfile insists on writing the .pstats file itself, so the
        # raw dump lands on the temp name outside the seam; the
        # publishing rename still routes through it.
        tmp = stats_path.with_name(
            stats_path.name + f".tmp-{os.getpid()}-p")
        profiler.dump_stats(tmp)
        faults.vfs_replace(tmp, stats_path)

        stats = pstats.Stats(str(stats_path))
        faults.publish_text(
            collapsed_path,
            "\n".join(collapsed_stacks(stats)) + "\n",
        )

        self.captures[name] = [str(stats_path), str(collapsed_path)]
