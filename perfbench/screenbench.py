"""The Plackett-Burman screen benchmark: workloads, repetitions, checks.

One repetition is what ``repro screen`` does for one invocation once
its traces exist: take the 13 traces as new objects, build the
foldover design, open the run directory (run-dir workloads only), then
run the 88 x 13 grid through ``PBExperiment.run``, rank it, and on
run-dir workloads seal ``results.json`` and close the telemetry.  The
first half is timed as set-up, the second as the screen.  Trace
synthesis is timed separately, a few times spread over the run.  See
``README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import PBExperiment, rank_parameters_from_result
from repro.core.comparison import compare_rankings
from repro.core.paper_data import paper_table9_ranking
from repro.cpu import simulate
from repro.exec import Journal, ResultCache, engine, grid_tasks, task_key
from repro.guard.audit import differing_fields
from repro.guard.verify import load_results, write_results
from repro.obs import EventWriter, Span, Telemetry, chrome_trace, phase_of
from repro.workloads import Trace
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    INSTRUCTIONS_PER_MILLION,
    default_length,
    profile,
)
from repro.workloads.synthetic import SyntheticProgram

from ledger import (
    PARENT_TRACK,
    LedgerError,
    Recorder,
    ledger,
    median,
    percentile,
)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    run_dir: bool


#: The measured workloads.  A resumed screen (the run-dir workload
#: re-run on its filled dir) is run by the output check only; README.md
#: says why it is not measured.
WORKLOADS = {
    w.name: w for w in (
        Workload("screen-serial", jobs=1, run_dir=False),
        Workload("screen-rundir", jobs=2, run_dir=True),
    )
}

#: Stall causes of ``CoreStats.stall_cycles`` reported as ``cpu.sim.*``.
STALL_CAUSES = ("fetch", "rob_full", "lsq_full", "fu_busy", "mispredict")

#: Cells re-simulated on the reference core by the output check.
REFERENCE_SAMPLE = 4

#: Committed reference-core totals of the seed-0, scale-5 screen.
TABLE9_BASELINE = Path("benchmarks") / "baselines" / "BENCH_table9.json"

#: Calls a traced repetition records before the screen starts.
SETUP_SPANS = ("doe.design", "exec.journal.open")

#: Times a run synthesises its traces, spread evenly over the run;
#: set-up counts the median.
SYNTH_SAMPLES = 5

#: The arrays of a :class:`Trace`, in constructor order.
TRACE_ARRAYS = ("pc", "op", "src1", "src2", "dst", "mem_addr",
                "branch_kind", "taken", "target", "redundancy_key")


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


class KernelUnavailable(Exception):
    """The compiled simulator kernel cannot run here."""


def seeded_traces(seed: int, scale: float = INSTRUCTIONS_PER_MILLION) \
        -> Dict[str, Trace]:
    """The 13 traces of workload seed ``seed`` at Table 5 lengths.

    Seed ``s`` offsets every profile's own seed by ``s``, so seed 0 is
    exactly :func:`repro.workloads.benchmark_trace` at scale 5.
    """
    traces = {}
    for name in BENCHMARK_NAMES:
        base = profile(name)
        program = SyntheticProgram(
            dataclasses.replace(base, seed=base.seed + seed))
        traces[name] = program.emit(default_length(name, scale), name=name)
    return traces


def unshared(traces: Dict[str, Trace]) -> Dict[str, Trace]:
    """New :class:`Trace` objects over the same arrays.

    Their decode and fingerprint memos start empty, so a repetition
    decodes and keys its traces as a fresh ``repro screen`` process
    does, without paying for synthesis again.
    """
    return {name: Trace(*(getattr(trace, field) for field in TRACE_ARRAYS),
                        name=trace.name)
            for name, trace in traces.items()}


class CellProgress:
    """The progress callback a screen passes, as the CLI's does."""

    def __init__(self):
        self.done = 0
        self.total = 0

    def __call__(self, done: int, total: int) -> None:
        self.done, self.total = done, total


@dataclass
class Rep:
    """One repetition's timings and outputs."""

    setup_s: float
    screen_s: float
    sums: List[int]
    responses: Dict[str, list]
    cells: int
    failed: int
    # Heavy outputs, dropped by release() once a newer repetition ran:
    # objects kept alive would slow the collector in later ones.
    experiment: Optional[PBExperiment]
    ranking: object
    run_dir: Optional[Path]
    recorder: Optional[Recorder] = None
    root: Optional[Span] = None
    telemetry: Optional[Telemetry] = None
    journal_appends: int = 0
    stream_bytes: int = 0
    #: Per-layer metrics, ledger rows and Perfetto document of a
    #: traced repetition.
    layers: Optional[Dict[str, Tuple]] = None
    rows: Optional[Dict[str, float]] = None
    perfetto: Optional[str] = None

    def release(self) -> None:
        # The run dir stays until the run ends (see _fresh_dir).
        self.experiment = self.ranking = None
        self.recorder = self.telemetry = None


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def run_rep(workload: Workload, traces: Dict[str, Trace],
            run_dir: Optional[Path], *,
            recorder: Optional[Recorder] = None) -> Rep:
    """Set up and run one screen of ``traces``; with ``recorder``,
    trace it."""
    rec = recorder

    def timed(name, call, *args, **kwargs):
        if rec is None:
            return call(*args, **kwargs)
        return rec.call(name, call, *args, **kwargs)

    start = time.perf_counter()
    traces = unshared(traces)
    progress = CellProgress()
    experiment = timed(
        "doe.design", PBExperiment, traces,
        progress=rec.timed("exec.progress", progress) if rec else progress,
    )
    cache = journal = telemetry = None
    stream_path = None
    if workload.run_dir:
        cache = ResultCache(run_dir / "cache")
        journal = timed("exec.journal.open", Journal,
                        run_dir / "journal.jsonl")
        stream_path = run_dir / "stream" / "main.events.jsonl"
        stream = EventWriter(stream_path, lane="main")
        if rec is not None:
            rec.wrap(cache, "get", "exec.cache.get")
            rec.wrap(cache, "put", "exec.cache.put")
            rec.wrap(journal, "get", "exec.journal.get")
            rec.wrap(journal, "record", "exec.journal.record")
            rec.wrap(stream, "emit", "obs.stream.append")
            rec.wrap(stream, "close", "obs.stream.close")
        telemetry = Telemetry.armed(trace=True, metrics=True,
                                    simulator_counters=True, stream=stream)
    elif rec is not None:
        telemetry = Telemetry.armed(trace=True, metrics=True,
                                    simulator_counters=True)
    setup_s = time.perf_counter() - start
    journal_before = len(journal) if journal is not None else 0
    stream_before = _size(stream_path) if stream_path else 0

    with ExitStack() as patches:
        if rec is not None:
            patches.enter_context(
                rec.patched(engine, "task_key", "exec.task_key"))
            patches.enter_context(
                rec.patched(Trace, "fingerprint", "workloads.fingerprint"))
            patches.enter_context(
                rec.patched(Trace, "decoded", "workloads.decode"))
        begin = time.perf_counter()
        root = rec.begin("screen", "benchmark") if rec else None
        result = experiment.run(jobs=workload.jobs, cache=cache,
                                journal=journal, telemetry=telemetry)
        with phase_of(telemetry, "rank"):
            ranking = timed("core.rank", rank_parameters_from_result, result)
        if workload.run_dir:
            timed("guard.write_results", write_results,
                  run_dir / "results.json", result, ranking)
            telemetry.close()
        if rec is not None:
            rec.finish(root)
        end = time.perf_counter()

    rep = Rep(setup_s, end - begin, list(ranking.sums),
              result.responses,
              result.design.n_runs * len(traces), len(result.failures),
              experiment, ranking, run_dir, rec, root, telemetry)
    if journal is not None:
        rep.journal_appends = len(journal) - journal_before
        journal.close()
    if stream_path is not None:
        rep.stream_bytes = _size(stream_path) - stream_before
    if rec is not None:
        rec.adopt(telemetry.tracer)
    return rep


# -- per-layer metrics -------------------------------------------------


def layer_metrics(rep: Rep) -> Tuple[Dict[str, Tuple], Dict[str, float]]:
    """Every per-layer metric of one traced repetition but the run's
    synthesis time, and its ledger.

    Raises :class:`CheckFailed` if a span recorded during the screen
    lies outside it or overlaps another without nesting, since its time
    would then land in the wrong row.  The ``cpu`` timings come from
    cells the parent simulates itself (serial); on the pool path the
    parent only sees dispatch to result, reported as ``exec.pool.*``,
    and they read 0.
    """
    rec = rep.recorder
    screen_spans = [span for span in rec.spans()
                    if span is not rep.root and span.name not in SETUP_SPANS]
    try:
        rows = ledger(rep.root, screen_spans)
    except LedgerError as exc:
        raise CheckFailed(f"traced screen: {exc}") from exc
    runs = rec.named("run")
    parent_runs = [s for s in runs if s.track == PARENT_TRACK]
    cell_ms = [s.duration * 1e3 for s in parent_runs]
    pool_ms = [s.duration * 1e3 for s in runs if s.track != PARENT_TRACK]
    snapshot = rep.telemetry.snapshot()

    def counter(name):
        return int(snapshot.get(name, {}).get("value", 0))

    def total(name):
        return sum(s.duration for s in rec.named(name))

    simulate_s = rows["cpu.simulate_s"]
    instructions = counter("sim.instructions")
    metrics = {row: (value, "s") for row, value in rows.items()}
    metrics.update({
        "doe.design_s": (total("doe.design"), "s"),
        "cpu.cells": (len(runs), "count"),
        "cpu.cell_ms_p50": (percentile(cell_ms, 50), "ms"),
        "cpu.cell_ms_p99": (percentile(cell_ms, 99), "ms"),
        "cpu.host_ns_per_instr": (
            simulate_s * 1e9 / instructions if parent_runs else 0.0, "ns"),
        "cpu.sim.cycles": (counter("sim.cycles"), "cycles"),
        "cpu.sim.instructions": (instructions, "instr"),
        "exec.task_keys": (len(rec.named("exec.task_key")), "count"),
        "exec.cache.gets": (len(rec.named("exec.cache.get")), "count"),
        "exec.cache.puts": (len(rec.named("exec.cache.put")), "count"),
        "exec.journal.open_s": (total("exec.journal.open"), "s"),
        "exec.journal.records": (rep.journal_appends, "count"),
        "exec.pool.cell_ms_p50": (percentile(pool_ms, 50), "ms"),
        "exec.pool.cell_ms_p99": (percentile(pool_ms, 99), "ms"),
        "exec.pool.queue_wait_s": (total("queue"), "s"),
        "obs.stream.events": (len(rec.named("obs.stream.append")),
                              "count"),
        "obs.stream.bytes": (rep.stream_bytes, "bytes"),
        "trace.screen_s": (rep.root.duration, "s"),
    })
    for cause in STALL_CAUSES:
        metrics[f"cpu.sim.stall.{cause}"] = (
            counter(f"sim.stall.{cause}"), "cycles")
    return metrics, rows


# -- output check ------------------------------------------------------


def _sealed(run_dir: Path) -> dict:
    return load_results(run_dir / "results.json")


def _agree(label: str, expected, actual) -> None:
    if expected != actual:
        raise CheckFailed(f"{label}: expected {expected!r}, got {actual!r}")


def output_check(workload: Workload, seed: int, scale: float, root: Path,
                 work: Path, traces: Dict[str, Trace],
                 reps: List[Rep]) -> None:
    """Check the outputs of this seed's screens; raise
    :class:`CheckFailed` on the first mismatch.

    * Every repetition ranked identically.
    * The serial, run-dir and resumed screens of this seed agree on
      every response and on the sealed rank sums (the ones this run did
      not time are run once here, untimed), and the resumed screen
      restores every cell instead of simulating it.
    * A seeded sample of cells, re-simulated on the reference core,
      matches the journaled stats field for field.
    * At seed 0 and scale 5 the summed simulated counters equal the
      committed reference-core baseline.
    """
    last = reps[-1]
    for rep in reps:
        _agree("rank sums across repetitions", last.sums, rep.sums)
        _agree("responses across repetitions",
               last.responses, rep.responses)

    def untimed(name, run_dir=None):
        return run_rep(WORKLOADS[name], traces, run_dir)

    serial = last if workload.name == "screen-serial" \
        else untimed("screen-serial")
    if workload.name == "screen-rundir":
        rundir = last.run_dir
    else:
        rundir = work / "check"
        untimed("screen-rundir", rundir)
    sealed_rundir = _sealed(rundir)
    # The same screen again on the filled run dir is a resume.
    resumed = untimed("screen-rundir", rundir)
    _agree("cells the resumed screen journaled", 0, resumed.journal_appends)
    sealed_resume = _sealed(rundir)
    for label, sealed in (("screen-rundir", sealed_rundir),
                          ("screen-resume", sealed_resume)):
        _agree(f"sealed rank sums of {label} vs screen-serial",
               serial.sums, sealed["ranking"]["sums"])
        _agree(f"sealed responses of {label} vs screen-serial",
               serial.responses, sealed["responses"])

    tasks = grid_tasks(last.experiment.configs(), traces)
    journal = Journal(rundir / "journal.jsonl")
    try:
        stats = [journal.get(task_key(task)) for task in tasks]
    finally:
        journal.close()
    if any(s is None for s in stats):
        raise CheckFailed(f"journal of {rundir} lacks cells")
    benches = list(traces)
    for i, cell in enumerate(stats):
        _agree(f"cycles of cell {i}",
               serial.responses[benches[i % len(benches)]]
               [i // len(benches)], float(cell.cycles))
    for i in random.Random(seed).sample(range(len(tasks)),
                                        REFERENCE_SAMPLE):
        oracle = simulate(tasks[i].config, tasks[i].trace, warmup=True,
                          core="reference")
        diff = differing_fields(oracle, stats[i])
        if diff:
            raise CheckFailed(
                f"cell {i} differs from the reference core in {diff}")

    totals = {"sim.cycles": sum(s.cycles for s in stats),
              "sim.instructions": sum(s.instructions for s in stats)}
    for cause in STALL_CAUSES:
        totals[f"sim.stall.{cause}"] = sum(
            s.stall_cycles.get(cause, 0) for s in stats)
    if seed == 0 and scale == INSTRUCTIONS_PER_MILLION:
        baseline = json.loads((root / TABLE9_BASELINE).read_text())
        metrics = baseline["outcome"]["metrics"]
        for name, value in totals.items():
            _agree(f"{name} vs {TABLE9_BASELINE}",
                   metrics[name]["value"], value)
    for rep in reps:
        if rep.layers is not None:
            _agree("traced sim counters vs journal", totals,
                   {name: rep.layers["cpu." + name][0] for name in totals})


# -- measurement loop --------------------------------------------------


def _peak_rss_mb(workload: Workload) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def probe_native() -> float:
    """Load the compiled kernel and run one cell on it; seconds taken.

    Raises :class:`KernelUnavailable` when that fails, so the Python
    fallback is never measured as the default core.
    """
    from repro.cpu import MachineConfig, native
    from repro.cpu.equivalence import random_trace

    compiler = native._toolchain()
    if compiler is not None:
        native._build(compiler)     # a build is not set-up time
    trace = random_trace(random.Random(0))
    start = time.perf_counter()
    try:
        simulate(MachineConfig(), trace, warmup=True, core="batched-native")
    except RuntimeError as exc:
        raise KernelUnavailable(str(exc)) from exc
    return time.perf_counter() - start


def _fresh_dir(path: Path) -> Path:
    """``path``, gone, with all dirty pages flushed.

    The flush keeps a repetition from competing with writeback of
    earlier ones.  Repetition dirs are deleted only when the run ends,
    so no repetition shares the disk with the deletion of an earlier
    one.
    """
    shutil.rmtree(path, ignore_errors=True)
    os.sync()
    return path


def run_benchmark(workload_name: str, seed: int, seconds: float,
                  trace: bool, *, root: Path, import_s: float,
                  scale: float = INSTRUCTIONS_PER_MILLION,
                  min_reps: int = 3,
                  trace_path: Optional[Path] = None) -> dict:
    """Measure one workload for about ``seconds``; return the result.

    The result is the benchmark's JSON object: ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or
    per-layer metrics when ``trace``).  Raises :class:`CheckFailed` on
    a wrong output.
    """
    workload = WORKLOADS[workload_name]
    started = time.perf_counter()
    load_s = probe_native()
    work = root / ".bench_build" / "work" / f"{workload.name}-{seed}"
    _fresh_dir(work)
    try:
        synth_s: List[float] = []
        reps: List[Rep] = []
        last_s = 0.0
        while True:
            plain = sum(1 for r in reps if r.layers is None)
            traced = len(reps) - plain
            enough = plain >= min_reps and (not trace or traced >= min_reps)
            elapsed = time.perf_counter() - started
            if enough and elapsed + last_s > seconds:
                break
            want_traced = trace and traced < plain
            run_dir = None
            if workload.run_dir:
                run_dir = _fresh_dir(work / f"rep-{len(reps)}")
            # After the flush, so synthesis does not share the CPUs
            # with writeback of the previous repetition's run dir.
            if len(synth_s) * seconds <= SYNTH_SAMPLES * elapsed:
                tick = time.perf_counter()
                traces = seeded_traces(seed, scale)
                synth_s.append(time.perf_counter() - tick)
            gc.collect()
            tick = time.perf_counter()
            rep = run_rep(workload, traces, run_dir,
                          recorder=Recorder() if want_traced else None)
            last_s = time.perf_counter() - tick
            if want_traced:
                rep.layers, rep.rows = layer_metrics(rep)
                rep.perfetto = json.dumps(chrome_trace(rep.recorder))
            if reps:
                reps[-1].release()
            reps.append(rep)
            print(f"{workload.name} seed {seed} rep {len(reps)}"
                  f"{' traced' if want_traced else ''}: "
                  f"setup {rep.setup_s:.3f} s, screen {rep.screen_s:.3f} s",
                  file=sys.stderr)

        peak_rss_mb = _peak_rss_mb(workload)
        cells = sum(r.cells for r in reps)
        failed = sum(r.failed for r in reps)
        rho = compare_rankings(reps[-1].ranking,
                               paper_table9_ranking()).overall_spearman
        output_check(workload, seed, scale, root, work, traces, reps)
        plain_reps = [r for r in reps if r.layers is None]
        if trace:
            metrics = _traced_metrics(
                plain_reps, [r for r in reps if r.layers is not None],
                trace_path)
            metrics["workloads.synth_s"] = (median(synth_s), "s")
        else:
            metrics = {
                "screen_s": (median([r.screen_s for r in plain_reps]), "s"),
                "setup_s": (import_s + load_s + median(synth_s) + median(
                    [r.setup_s for r in plain_reps]), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "cell_success_share": (1.0 - failed / cells, "ratio"),
                "table9_rho_vs_paper": (rho, "ratio"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": True,
        "attempted": cells,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _traced_metrics(plain: List[Rep], traced: List[Rep],
                    trace_path: Optional[Path]) -> Dict[str, Tuple]:
    """Per-layer metrics of the median traced repetition."""
    chosen = sorted(traced, key=lambda r: r.screen_s)[(len(traced) - 1) // 2]
    metrics = dict(chosen.layers)
    metrics["trace.overhead_s"] = (
        median([r.screen_s for r in traced])
        - median([r.screen_s for r in plain]), "s")
    screen_s = metrics["trace.screen_s"][0]
    print(f"ledger of the median traced screen ({screen_s:.4f} s):",
          file=sys.stderr)
    for row, value in chosen.rows.items():
        if value:
            print(f"  {row:28s} {value:9.4f} s "
                  f"{100 * value / screen_s:5.1f}%", file=sys.stderr)
    print(f"  {'sum':28s} {sum(chosen.rows.values()):9.4f} s; "
          f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s",
          file=sys.stderr)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(chosen.perfetto)
        print(f"Perfetto trace written to {trace_path}", file=sys.stderr)
    return metrics
