"""Offline cross-verification of a finished screen run.

``repro verify <run-dir>`` answers, without trusting any single
artifact, "do this run's artifacts still agree with each other and
with the statistics they claim to derive from?":

* the **manifest** proves what was run (and carries its own integrity
  digest);
* the **journal** is the ground truth of raw results: every completed
  cell's :class:`~repro.cpu.stats.CoreStats`, checksummed per line;
* the **result cache** (when present) must hold only valid segment
  lines and agree bit-exact with the journal on every shared cell;
* the **results document** (``results.json``, sealed) holds what the
  screen *reported* — responses, per-benchmark effect tables, the
  Table 9 ranking.

The verifier rebuilds the task grid from the manifest's workload
description (the workload generator is deterministic, so traces —
and therefore task keys — reproduce exactly), pulls the raw stats
back out of the journal, recomputes PB effects and rank sums from
scratch, and compares against the sealed results document per
benchmark.  Exit-code contract:

* ``0`` — every artifact present, intact, and in agreement;
* ``1`` — a violation: corruption, tampering, or a recomputation
  that disagrees with what the run reported;
* ``2`` — verification impossible: artifacts missing or incomplete
  (nothing proven either way).

Heavyweight imports (NumPy, the simulator stack) happen inside
functions: ``repro.guard`` itself stays importable on a bare
interpreter.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import faults
from .errors import SealError, SealMissing
from .lines import breakdown
from .seal import check as check_seal, seal as make_seal

__all__ = [
    "RESULTS_KIND",
    "RESULTS_SCHEMA",
    "VerifyCheck",
    "VerifyReport",
    "load_results",
    "screen_results_payload",
    "verify_run",
    "write_results",
]

#: Seal ``kind`` / format version of a screen's results document.
RESULTS_KIND = "screen-results"
RESULTS_SCHEMA = 1

#: Exit codes of the verify contract.
_OK, _VIOLATION, _INCONCLUSIVE = 0, 1, 2


# -- results document ----------------------------------------------


def screen_results_payload(result, ranking) -> Dict[str, object]:
    """The JSON-ready results document for one finished screen.

    ``result`` is a :class:`~repro.core.experiment.PBExperimentResult`,
    ``ranking`` the :class:`~repro.core.ParameterRanking` derived from
    it.  Everything ``verify_run`` recomputes is in here: the raw
    response columns, the per-benchmark effect tables, and the
    serialized Table 9.
    """
    return {
        "design": {
            "factors": list(result.design.factor_names),
            "n_runs": int(result.design.n_runs),
        },
        "responses": {
            bench: list(column)
            for bench, column in result.responses.items()
        },
        "effects": {
            bench: {
                "factors": list(table.factor_names),
                "effects": list(table.effects),
            }
            for bench, table in result.effects.items()
        },
        "ranking": ranking.to_dict(),
    }


def write_results(path: Union[str, os.PathLike], result,
                  ranking) -> Path:
    """Seal and write a screen's results document; returns the path."""
    from repro.cpu import SIMULATOR_VERSION

    payload = json.dumps(
        screen_results_payload(result, ranking),
        sort_keys=True, indent=2,
    ).encode("utf-8")
    blob = make_seal(
        payload, kind=RESULTS_KIND, schema=RESULTS_SCHEMA,
        simulator_version=SIMULATOR_VERSION,
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The sanctioned publish seam: a reader (or a crash) never
    # observes a half-written results document, and an injected
    # ENOSPC/rename fault either clears within the retry budget or
    # propagates with the previous document intact.
    faults.publish_bytes(path, blob, retries=2)
    return path


def load_results(path: Union[str, os.PathLike], *,
                 simulator_version: Optional[str] = None) \
        -> Dict[str, object]:
    """Check a sealed results document and return its parsed payload.

    Raises the :class:`~repro.guard.errors.SealError` family on any
    integrity failure, exactly like the other sealed loaders.
    """
    blob = Path(path).read_bytes()
    payload = check_seal(
        blob, kind=RESULTS_KIND, schema=RESULTS_SCHEMA,
        simulator_version=simulator_version,
    )
    return json.loads(payload.decode("utf-8"))


# -- report structure ----------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    """One named cross-check and its outcome.

    ``ok=None`` means the check could not run (its inputs were
    missing or unusable) — inconclusive, not passed.
    """

    name: str
    ok: Optional[bool]
    detail: str = ""

    def describe(self) -> str:
        """One report line: status, check name, detail."""
        mark = {True: "ok  ", False: "FAIL", None: "----"}[self.ok]
        detail = f": {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{detail}"


@dataclass
class VerifyReport:
    """Everything ``verify_run`` established about one run directory."""

    run_dir: str
    checks: List[VerifyCheck] = field(default_factory=list)

    def add(self, name: str, ok: Optional[bool],
            detail: str = "") -> None:
        """Record one check outcome."""
        self.checks.append(VerifyCheck(name, ok, detail))

    @property
    def violations(self) -> List[VerifyCheck]:
        """Checks that ran and failed."""
        return [c for c in self.checks if c.ok is False]

    @property
    def inconclusive(self) -> List[VerifyCheck]:
        """Checks that could not run."""
        return [c for c in self.checks if c.ok is None]

    @property
    def status(self) -> int:
        """The exit code: 0 verified, 1 violation, 2 inconclusive.

        A found violation outranks missing evidence: a run that is
        both incomplete *and* demonstrably corrupt reports ``1``.
        """
        if self.violations:
            return _VIOLATION
        if self.inconclusive:
            return _INCONCLUSIVE
        return _OK

    def describe(self) -> str:
        """The full human-readable report."""
        lines = [f"verify {self.run_dir}"]
        lines.extend("  " + check.describe() for check in self.checks)
        status = self.status
        verdict = {
            _OK: "VERIFIED: all artifacts agree",
            _VIOLATION: (
                f"VIOLATIONS: {len(self.violations)} check(s) failed"
            ),
            _INCONCLUSIVE: (
                "INCONCLUSIVE: "
                f"{len(self.inconclusive)} check(s) could not run"
            ),
        }[status]
        lines.append(verdict)
        return "\n".join(lines)


# -- the verifier ---------------------------------------------------


def _benchmark_names(spec: str) -> List[str]:
    """The CLI's ``--benchmarks`` string, resolved to names."""
    from repro.workloads import BENCHMARK_NAMES

    if spec.strip().lower() == "all":
        return list(BENCHMARK_NAMES)
    return [b.strip() for b in spec.split(",") if b.strip()]


def _load_manifest_checked(report: VerifyReport,
                           path: Path) -> Optional[dict]:
    from repro.obs.manifest import load_manifest

    if not path.exists():
        report.add("manifest", None, f"{path} does not exist")
        return None
    try:
        doc = load_manifest(path)
    except SealMissing as exc:
        report.add("manifest", None, str(exc))
        return None
    except SealError as exc:
        report.add("manifest", False, f"[{exc.reason}] {exc}")
        return None
    report.add("manifest", True, "integrity digest verified")
    return doc


def verify_run(run_dir: Union[str, os.PathLike], *,
               manifest_path=None, journal_path=None,
               results_path=None, cache_dir=None,
               spool_dir=None) -> VerifyReport:
    """Cross-check every artifact of one screen run directory.

    The directory layout is what ``repro screen --run-dir`` writes:
    ``manifest.json``, ``journal.jsonl``, ``results.json`` and
    (optionally) a ``cache/`` the run was pointed at with
    ``--cache-dir`` and a distributed ``spool/``; the keyword
    overrides point at artifacts living elsewhere.  Returns a
    :class:`VerifyReport`; its ``status`` property implements the
    0/1/2 exit-code contract.
    """
    import warnings as warnings_module

    run_dir = Path(run_dir)
    report = VerifyReport(str(run_dir))
    manifest_path = Path(manifest_path or run_dir / "manifest.json")
    journal_path = Path(journal_path or run_dir / "journal.jsonl")
    results_path = Path(results_path or run_dir / "results.json")
    cache_dir = Path(cache_dir) if cache_dir is not None \
        else run_dir / "cache"
    spool_dir = Path(spool_dir) if spool_dir is not None \
        else run_dir / "spool"

    # 1. Manifest: self-integrity, then the workload description.
    manifest = _load_manifest_checked(report, manifest_path)
    if manifest is None:
        return report
    run_info = manifest.get("run", {})
    workload = run_info.get("workload", {})
    sim_version = run_info.get("simulator_version")
    if not sim_version:
        report.add("workload", None,
                   "manifest records no simulator_version; cannot "
                   "re-derive task keys")
        return report
    try:
        names = _benchmark_names(str(workload["benchmarks"]))
        length = int(workload["length"])
    except (KeyError, TypeError, ValueError):
        report.add("workload", None,
                   "manifest has no usable workload description")
        return report

    # 2. Rebuild the grid: deterministic traces -> identical keys.
    from repro.core import PBExperiment, rank_parameters
    from repro.doe import compute_effects
    from repro.exec import Journal, ResultCache, task_key
    from repro.exec.engine import grid_tasks
    from repro.guard.audit import differing_fields
    from repro.workloads import benchmark_suite

    try:
        traces = benchmark_suite(length=length, names=names)
    except (KeyError, ValueError) as exc:
        report.add("workload", None, f"cannot rebuild traces: {exc}")
        return report
    # The core only enters keys as its normalized family, but the
    # reference oracle's family is distinct — rebuild with the core
    # the manifest says the run used.
    core = str(run_info.get("settings", {}).get("core", "batched"))
    experiment = PBExperiment(traces, core=core)
    configs = experiment.configs()
    tasks = grid_tasks(configs, traces, core=core)
    keys = [task_key(t, version=sim_version) for t in tasks]
    report.add(
        "workload", True,
        f"{len(configs)} configurations x {len(traces)} benchmarks "
        f"rebuilt ({len(tasks)} cells)",
    )

    # 3. Journal: every dropped line is a violation; every cell of
    #    the grid must be present to recompute anything.
    if not journal_path.exists():
        report.add("journal", None, f"{journal_path} does not exist")
        return report
    with warnings_module.catch_warnings():
        # The drop warning is redundant here: the report itself is
        # the louder channel.
        warnings_module.simplefilter("ignore", RuntimeWarning)
        journal = Journal(journal_path, version=sim_version)
    if journal.corrupt:
        report.add("journal", False,
                   f"{journal_path}: dropped {journal.corrupt} "
                   f"invalid line(s) ({breakdown(journal.dropped)})")
    else:
        report.add("journal", True,
                   f"{len(journal)} entries, all checksums valid")
    # 4. Cache (optional): every segment line must be intact and
    #    agree bit-exact with the journal.  Runs even when the journal
    #    is incomplete so a report names *all* damaged artifacts.
    #    One-file ``*.pkl`` entries of the earlier cache format are
    #    ignored by the cache, so they are a note, not evidence.
    if cache_dir.exists():
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("ignore", RuntimeWarning)
            cache = ResultCache(cache_dir, version=sim_version)
            len(cache)  # reads the segment, under the same filter
        if cache.legacy_entries:
            report.add("cache-legacy", True,
                       f"note: {cache_dir} holds {cache.legacy_entries} "
                       "legacy one-file entr(y/ies), ignored by the "
                       "cache")
        compared = mismatched = 0
        for key in keys:
            entry = cache.get(key)
            journaled = journal.get(key)
            if entry is None or journaled is None:
                continue
            compared += 1
            diff = differing_fields(journaled, entry)
            if diff:
                mismatched += 1
                report.add(
                    "cache-agreement", False,
                    f"entry {key[:12]}... disagrees with the journal "
                    f"on {', '.join(diff)}",
                )
        if cache.corrupt:
            report.add("cache", False,
                       f"{cache_dir}: dropped {cache.corrupt} invalid "
                       f"segment line(s) ({breakdown(cache.dropped)})")
        elif not mismatched:
            report.add("cache", True,
                       f"{compared} shared entries agree with the "
                       "journal bit-exact")

    # 4b. Distributed spool (optional): every sealed worker result
    #     must agree bit-exact with the journal, no file may be torn,
    #     and a drained spool must hold no in-flight tickets.  Error
    #     outcomes awaiting republish are not violations — the
    #     journal-coverage check below judges completeness.
    if spool_dir.exists():
        from repro.dist.spool import Spool

        spool = Spool(spool_dir, version=sim_version)
        agreed = spool_bad = 0
        for key in spool.result_keys():
            try:
                record = spool.read_result(key)
            except SealError as exc:
                spool_bad += 1
                report.add("spool", False,
                           f"result {key[:12]}...: [{exc.reason}] {exc}")
                continue
            if not record.get("ok"):
                continue
            journaled = journal.get(key)
            if journaled is None:
                continue
            diff = differing_fields(journaled, record["stats"])
            if diff:
                spool_bad += 1
                report.add(
                    "spool-agreement", False,
                    f"result {key[:12]}... disagrees with the journal "
                    f"on {', '.join(diff)}",
                )
            else:
                agreed += 1
        if not spool_bad:
            report.add("spool", True,
                       f"{agreed} sealed worker results agree with "
                       "the journal bit-exact")
        in_flight = len(spool.pending_keys()) + len(spool.leased_keys())
        if in_flight:
            report.add("spool-drained", None,
                       f"{in_flight} ticket(s) still pending/leased "
                       "— the distributed run did not finish")
        else:
            report.add("spool-drained", True, "no tickets in flight")

    # 4c. Event log (optional): every telemetry lane must carry only
    #     intact sealed lines.  A torn tail is a crash *signature*
    #     (the writer died mid-append) — tolerated and reported, the
    #     same stance the journal scanner takes; mid-file damage is
    #     evidence of tampering or disk trouble and is named per lane
    #     and line, exactly like journal damage.
    from repro.obs.stream import find_stream_lanes, scan_stream

    lane_paths = []
    for root in (run_dir, spool_dir):
        if root.exists():
            for path in find_stream_lanes(root):
                if path not in lane_paths:
                    lane_paths.append(path)
    if lane_paths:
        stream_bad = total_records = 0
        torn: List[str] = []
        for path in lane_paths:
            try:
                scan = scan_stream(path)
            except OSError as exc:
                report.add("event-log", None,
                           f"{path}: unreadable ({exc})")
                continue
            total_records += len(scan.records)
            if scan.torn_tail:
                torn.append(scan.lane)
            for lineno, reason in scan.damage:
                stream_bad += 1
                report.add("event-log", False,
                           f"{path.name} line {lineno}: {reason}")
        if not stream_bad:
            detail = (f"{len(lane_paths)} lane(s), "
                      f"{total_records} records intact")
            if torn:
                detail += (", torn tail tolerated on "
                           + ", ".join(sorted(torn)))
            report.add("event-log", True, detail)

    # 5. Results document seal — checked before the coverage bailout
    #    so a report names every damaged artifact, not just the first.
    results = None
    if not results_path.exists():
        report.add("results", None, f"{results_path} does not exist")
    else:
        try:
            results = load_results(results_path,
                                   simulator_version=sim_version)
        except SealError as exc:
            report.add("results", False,
                       f"{results_path}: [{exc.reason}] {exc}")
        else:
            report.add("results", True, "seal verified")

    missing = [k for k in keys if k not in journal]
    if missing:
        report.add(
            "journal-coverage", None,
            f"{len(missing)} of {len(keys)} grid cells absent from "
            "the journal; cannot recompute effects",
        )
        return report
    report.add("journal-coverage", True,
               f"all {len(keys)} grid cells journaled")
    if results is None:
        return report

    # 6. Recompute responses, effects and ranks from the raw journal
    #    stats; compare against the sealed results document.
    responses = {bench: [] for bench in traces}
    index = 0
    for _config in configs:
        for bench in traces:
            responses[bench].append(
                float(journal.get(keys[index]).cycles)
            )
            index += 1
    effects = {
        bench: compute_effects(experiment.design, column)
        for bench, column in responses.items()
    }
    ranking = rank_parameters(effects)

    stored_responses = results.get("responses", {})
    stored_effects = results.get("effects", {})
    for bench in traces:
        problems = []
        if stored_responses.get(bench) != responses[bench]:
            problems.append("responses")
        stored = stored_effects.get(bench, {})
        if stored.get("factors") != list(
                experiment.design.factor_names) \
                or stored.get("effects") != list(effects[bench].effects):
            problems.append("effects")
        report.add(
            f"recompute:{bench}",
            not problems,
            ("recomputed responses and effects agree"
             if not problems else
             f"disagrees on {', '.join(problems)}"),
        )
    stored_ranking = results.get("ranking", {})
    ranking_agrees = (
        stored_ranking.get("factors") == list(ranking.factors)
        and stored_ranking.get("sums") == list(ranking.sums)
        and stored_ranking.get("ranks") == ranking.ranks.tolist()
    )
    report.add(
        "rank-sums", ranking_agrees,
        ("recomputed Table 9 ranking and rank sums agree"
         if ranking_agrees else
         "recomputed ranking disagrees with the results document"),
    )
    return report
