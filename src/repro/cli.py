"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the paper's workflow end to end:

* ``screen``   — §4.1: PB screen over the 41 parameters, print ranks;
* ``classify`` — §4.2: distance matrix and groups (measured or from
  the paper's own published data);
* ``enhance``  — §4.3: before/after analysis for instruction
  precomputation or data prefetching;
* ``simulate`` — run one benchmark on one machine and print its stats;
* ``characterize`` — classical workload characterization (mix, branch
  statistics, footprints, miss-rate curves);
* ``tables``   — print the paper's exact exhibits (Tables 1-4, 6-8,
  10, 11 from bundled data);
* ``diffcore`` — differential-equivalence sweep of the compiled
  kernel against the interpreted reference oracle (exit 1 on
  divergence or when the kernel is unavailable);
* ``bench``    — compare fresh ``BENCH_<label>.json`` manifests
  against committed baselines (``check``: perf regression beyond a
  tolerance, or any drift in the deterministic simulator totals,
  fails);
* ``lint``     — the determinism & fork-safety static analysis
  (``repro.analysis``) that gates changes to this tree in CI;
* ``verify``   — offline integrity cross-check of a finished run
  directory (manifest / journal / cache / results / event log;
  exit 0/1/2);
* ``journal``  — inspect (``scan``) or repair (``repair``) a
  checkpoint journal's damage;
* ``top``      — live fleet view of a running (or crashed, or
  finished) grid, aggregated from the spool and the event-log lanes;
* ``obs``      — telemetry tooling: ``obs export`` renders Prometheus
  text or a Perfetto trace reconstructed from the event stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.workloads import BENCHMARK_NAMES


def _add_workload_args(parser, default_length=4000):
    parser.add_argument(
        "--benchmarks", "-b", default="gzip,mcf",
        help="comma-separated benchmark names, or 'all' "
             f"(choices: {', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--length", "-n", type=int, default=default_length,
        help="trace length in instructions (default %(default)s)",
    )


def _benchmark_names(args):
    if args.benchmarks.strip().lower() == "all":
        return list(BENCHMARK_NAMES)
    names = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    unknown = [n for n in names if n not in BENCHMARK_NAMES]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}")
    return names


def _traces(args):
    from repro.workloads import benchmark_suite

    return benchmark_suite(length=args.length, names=_benchmark_names(args))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_core_arg(parser):
    from repro.cpu import SIMULATOR_CORES

    parser.add_argument(
        "--core", default="batched", choices=SIMULATOR_CORES,
        help="simulator core (default %(default)s: the compiled "
             "kernel, or the reference model when the kernel is "
             "unavailable; batched-native demands the kernel); all "
             "cores are field-exact equivalent, so this is a speed "
             "knob, never a results knob",
    )


def _add_exec_args(parser):
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the simulation grid "
             "(default %(default)s; results are identical at any value)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk simulation result cache (one append-only "
             "segment many runs can share); reruns and related "
             "analyses reuse measurements instead of re-simulating",
    )
    parser.add_argument(
        "--retry", type=int, default=1, metavar="N",
        help="attempts per simulation cell before it counts as failed "
             "(default %(default)s = no retries)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; a cell over budget has its "
             "worker killed and is retried (needs --jobs >= 2)",
    )
    parser.add_argument(
        "--on-error", choices=["raise", "retry", "skip"],
        default="raise",
        help="what to do when a cell exhausts its attempts: fail the "
             "run (raise/retry) or annotate the cell and continue "
             "(skip) (default %(default)s)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append every completed cell to this checkpoint journal; "
             "an interrupted run resumes from it with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from an existing --journal file instead of "
             "refusing to touch it",
    )
    parser.add_argument(
        "--audit", type=float, default=None, metavar="FRACTION",
        help="re-execute this fraction of cache/journal hits and "
             "compare bit-exact; a mismatch aborts the run with an "
             "AuditMismatch naming both payloads",
    )
    parser.add_argument(
        "--audit-seed", type=int, default=0, metavar="N",
        help="seed of the deterministic audit sample "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--dist", default=None, metavar="SPOOL_DIR",
        help="run the grid through the distributed broker/worker "
             "runtime, coordinating through this shared spool "
             "directory; attach workers with 'repro worker SPOOL_DIR'",
    )
    parser.add_argument(
        "--dist-attach-grace", type=float, default=10.0,
        metavar="SECONDS",
        help="how long the broker waits for the first worker "
             "heartbeat before degrading to local execution "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--dist-heartbeat-grace", type=float, default=2.5,
        metavar="SECONDS",
        help="seconds without a heartbeat before a worker is presumed "
             "dead and its leases reclaimed (default %(default)s)",
    )
    parser.add_argument(
        "--dist-spool-budget", type=int, default=None, metavar="N",
        help="after the run, garbage-collect consumed sealed results "
             "from the spool down to at most N files (default: keep "
             "everything; a restarted broker adopts them for free)",
    )


def _flag_error(flag: str, exc: ValueError) -> SystemExit:
    """A flag value the library rejected, as argparse's own usage
    error: the message (naming ``flag``) on stderr, exit status 2."""
    message = f"{flag}: {exc}"
    print(f"repro: error: {message}", file=sys.stderr)
    error = SystemExit(message)
    error.code = 2
    return error


def _checked(flag: str, build, **values):
    """``build(**values)``, a ``ValueError`` becoming a usage error
    that names ``flag``."""
    try:
        return build(**values)
    except ValueError as exc:
        raise _flag_error(flag, exc) from None


def _exec_options(args) -> dict:
    """Engine options (:class:`repro.exec.ExecOptions` fields) from
    parsed CLI args, validated before any cell runs."""
    import os

    from repro.exec import ExecOptions, Journal, ResultCache, RetryPolicy

    _checked("--jobs", ExecOptions, jobs=args.jobs)
    _checked("--task-timeout", ExecOptions, timeout=args.task_timeout)
    # One attempt is the engine's fail-fast default, not a policy.
    retry = None if args.retry == 1 else _checked(
        "--retry", RetryPolicy, max_attempts=args.retry)
    audit = None
    if args.audit is not None:
        from repro.guard import AuditPolicy

        audit = _checked("--audit", AuditPolicy, fraction=args.audit,
                         seed=args.audit_seed)
    dist = None
    if getattr(args, "dist", None):
        from repro.dist import DistOptions

        dist = _checked(
            "--dist", DistOptions,
            spool=args.dist,
            attach_grace=args.dist_attach_grace,
            heartbeat_grace=args.dist_heartbeat_grace,
            spool_budget_results=getattr(
                args, "dist_spool_budget", None),
        )
    try:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
    except OSError as exc:
        raise SystemExit(f"bad --cache-dir {args.cache_dir!r}: {exc}")
    journal = None
    if args.journal:
        if os.path.exists(args.journal) and not args.resume:
            raise SystemExit(
                f"journal {args.journal!r} already exists; pass "
                "--resume to continue from it or remove the file"
            )
        try:
            journal = Journal(args.journal)
        except OSError as exc:
            raise SystemExit(f"bad --journal {args.journal!r}: {exc}")
        if args.resume and len(journal):
            print(f"resuming: {len(journal)} cells already in "
                  f"{args.journal}", file=sys.stderr)
    elif args.resume:
        raise SystemExit("--resume needs --journal FILE")
    return dict(
        jobs=args.jobs, cache=cache, retry=retry,
        timeout=args.task_timeout, on_error=args.on_error,
        journal=journal, audit=audit, dist=dist,
    )


def _add_obs_args(parser):
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run (open it in "
             "https://ui.perfetto.dev or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the final metrics snapshot as JSONL "
             "(one instrument per line)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a JSON run manifest (input fingerprint, versions, "
             "engine settings, fault spec, final metrics)",
    )
    parser.add_argument(
        "--stream", default=None, metavar="DIR",
        help="append a live event log (sealed-line JSONL) under DIR "
             "while the run executes; watch it with 'repro top DIR' "
             "and export it with 'repro obs export'",
    )
    parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="capture a cProfile per engine phase into DIR "
             "(<phase>.pstats + flamegraph-ready "
             "<phase>.collapsed.txt)",
    )


def _apply_run_dir(args):
    """Expand ``--run-dir DIR`` into the individual artifact flags.

    Fills every artifact path the offline ``repro verify`` contract
    expects — ``journal.jsonl``, ``manifest.json``, ``metrics.jsonl``
    and ``results.json`` under one directory — leaving any flag the
    user set explicitly alone.  The journal is the run dir's only
    result store (a shared ``--cache-dir`` stays opt-in), and it
    exists to be resumed, so ``--resume`` is implied for it.
    """
    run_dir = getattr(args, "run_dir", None)
    if not run_dir:
        return
    from pathlib import Path

    base = Path(run_dir)
    base.mkdir(parents=True, exist_ok=True)
    if args.journal is None:
        args.journal = str(base / "journal.jsonl")
        args.resume = True
    if args.manifest is None:
        args.manifest = str(base / "manifest.json")
    if args.metrics is None:
        args.metrics = str(base / "metrics.jsonl")
    if getattr(args, "stream", None) is None:
        # The event log is cheap, crash-durable and what 'repro top'
        # reads, so a verifiable run dir always streams; --profile
        # stays opt-in (profiling has real overhead).
        args.stream = str(base / "stream")


class _Obs:
    """Telemetry wiring parsed from the ``--trace/--metrics/
    --manifest/--stream/--profile`` flag family.

    Arms a :class:`repro.obs.Telemetry` when any of the flags is
    present, and owns writing the artifacts when the command finishes
    (including an interrupted finish, so a killed run still leaves its
    partial trace, a sealed event stream with every open span closed,
    and a manifest saying so).  With no flags every method degrades to
    a no-op and the command pays nothing.
    """

    def __init__(self, args, command):
        import os

        self.trace_path = getattr(args, "trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self.manifest_path = getattr(args, "manifest", None)
        self.stream_dir = getattr(args, "stream", None)
        self.profile_dir = getattr(args, "profile", None)
        self.telemetry = None
        self.manifest = None
        self._finished = False
        if not (self.trace_path or self.metrics_path
                or self.manifest_path or self.stream_dir
                or self.profile_dir):
            return
        from pathlib import Path

        from repro.obs import (
            EventWriter,
            PhaseProfiler,
            RunManifest,
            Telemetry,
            config_fingerprint,
        )

        stream = None
        if self.stream_dir:
            stream = EventWriter(
                Path(self.stream_dir) / "main.events.jsonl",
                lane="main",
            )
        profiler = (PhaseProfiler(self.profile_dir)
                    if self.profile_dir else None)
        # Spans only matter if a trace or stream is written, but the
        # manifest wants the final metrics snapshot, so the registry
        # is armed with it too (simulator counters included — that is
        # the whole point of asking for metrics).
        self.telemetry = Telemetry.armed(
            trace=self.trace_path is not None or stream is not None,
            metrics=self.metrics_path is not None
            or self.manifest_path is not None
            or stream is not None,
            simulator_counters=True,
            stream=stream, profiler=profiler,
        )
        if self.manifest_path:
            settings = {
                "jobs": args.jobs,
                "cache_dir": args.cache_dir,
                "retry": args.retry,
                "task_timeout": args.task_timeout,
                "on_error": args.on_error,
                "journal": args.journal,
                "core": getattr(args, "core", "batched"),
                "dist": getattr(args, "dist", None),
                "stream": self.stream_dir,
                "profile": self.profile_dir,
            }
            workload = {
                "benchmarks": args.benchmarks,
                "length": args.length,
            }
            artifacts = {}
            if self.trace_path:
                artifacts["trace"] = self.trace_path
            if self.metrics_path:
                artifacts["metrics"] = self.metrics_path
            if args.journal:
                artifacts["journal"] = args.journal
            if self.stream_dir:
                artifacts["stream"] = self.stream_dir
            if self.profile_dir:
                artifacts["profile"] = self.profile_dir
            if getattr(args, "run_dir", None):
                artifacts["results"] = os.path.join(
                    args.run_dir, "results.json"
                )
            from repro.guard import faults

            injector = faults.active()
            self.manifest = RunManifest(
                command=command,
                fingerprint=config_fingerprint({
                    "command": command,
                    "settings": settings,
                    "workload": workload,
                }),
                settings=settings,
                workload=workload,
                fault_spec=str(injector) if injector is not None else None,
                artifacts=artifacts,
            )

    def finish(self, status="completed"):
        """Write every requested artifact; called exactly once.

        The first action is ``telemetry.close(status)``: every span
        still open (an interrupt mid-grid) is finished — which, with
        a stream armed, appends its ``span-close`` record — and the
        event-log generation is sealed with a ``stream-close``
        carrying the status.  Only then are the post-hoc artifacts
        (trace, metrics, manifest) written.
        """
        if self.telemetry is None or self._finished:
            return
        self._finished = True
        from repro.obs import write_chrome_trace, write_metrics_jsonl

        self.telemetry.close(status)
        if self.trace_path:
            write_chrome_trace(self.telemetry.tracer, self.trace_path)
        if self.metrics_path:
            write_metrics_jsonl(
                self.telemetry.metrics, self.metrics_path
            )
        if self.manifest is not None:
            profiler = self.telemetry.profiler
            if profiler is not None:
                for phase, paths in sorted(profiler.captures.items()):
                    self.manifest.artifacts[f"profile.{phase}"] = \
                        paths[0]
            self.manifest.finalize(
                status=status, metrics=self.telemetry.snapshot(),
            )
            self.manifest.write(self.manifest_path)


class _CellProgress:
    """Tracks grid progress so an interrupt can say where it stopped."""

    def __init__(self):
        self.done = 0
        self.total = 0
        self.finished_grids = 0

    def __call__(self, done, total):
        if done < self.done:        # a new grid of the same session
            self.finished_grids += self.total
        self.done, self.total = done, total

    @property
    def cells_done(self):
        return self.finished_grids + self.done


def _interrupt_summary(args, progress):
    """One line telling the user what survived and how to resume."""
    done = progress.cells_done
    if getattr(args, "journal", None):
        hint = (f"; resume with --journal {args.journal} --resume "
                "(completed cells are checkpointed)")
    elif getattr(args, "cache_dir", None):
        hint = (f"; rerun with --cache-dir {args.cache_dir} to reuse "
                "completed cells")
    else:
        hint = ("; rerun with --journal FILE to make runs resumable")
    print(f"interrupted after {done} completed cells{hint}",
          file=sys.stderr)


#: Conventional exit status for death-by-SIGINT.
EXIT_INTERRUPTED = 130


def _run_study(args, command, study, grids=1):
    """Run ``study(traces, core=, progress=, telemetry=, **options)``
    with the workload, engine options and telemetry ``args`` ask for.

    A study has the calling shape of
    :func:`repro.core.analyze_enhancement` and, like it, returns its
    analysis followed by its experiment results, whose failed cells
    are warned about.  Returns ``(obs, outcome)``, ``obs`` still open
    for the command's own phases.  After an interrupt the artifacts
    are written as ``interrupted``, stderr says where to resume from,
    and the result is ``None``.  Any other exception is re-raised once
    the artifacts are written as ``failed``: open spans closed as
    interrupted, the event lane sealed, the manifest stamped.
    """
    _apply_run_dir(args)
    traces = _traces(args)
    options = _exec_options(args)
    obs = _Obs(args, command)
    progress = _CellProgress()
    times = f"{grids} x " if grids > 1 else ""
    print(f"running {times}88 configurations x {len(traces)} "
          "benchmarks ...", file=sys.stderr)
    try:
        outcome = study(traces, core=args.core, progress=progress,
                        telemetry=obs.telemetry, **options)
    except KeyboardInterrupt:
        obs.finish(status="interrupted")
        _interrupt_summary(args, progress)
        return None
    except Exception:
        obs.finish(status="failed")
        raise
    finally:
        if options["journal"] is not None:
            options["journal"].close()
    for result in outcome[1:]:
        for failure in result.failures:
            print(f"warning: {failure.describe()}", file=sys.stderr)
    return obs, outcome


def _screen(traces, *, core, progress, telemetry, **options):
    """The §4.1 PB screen as a study: ``(ranking, result)``."""
    from repro.core import PBExperiment, rank_parameters_from_result
    from repro.obs.telemetry import phase_of

    result = PBExperiment(traces, core=core, progress=progress) \
        .run(telemetry=telemetry, **options)
    with phase_of(telemetry, "rank"):
        return rank_parameters_from_result(result), result


def cmd_screen(args) -> int:
    from repro.doe import lenth_test
    from repro.reporting import render_ranking

    run = _run_study(args, "screen", _screen)
    if run is None:
        return EXIT_INTERRUPTED
    obs, (ranking, result) = run
    if args.run_dir:
        from pathlib import Path

        results_path = Path(args.run_dir) / "results.json"
        if result.complete:
            from repro.guard.verify import write_results

            write_results(results_path, result, ranking)
            print(f"results sealed to {results_path}",
                  file=sys.stderr)
        else:
            print("warning: run incomplete; results.json not "
                  "written (repro verify would be inconclusive)",
                  file=sys.stderr)
    obs.finish()
    print(render_ranking(ranking, title="Parameter ranks"))
    print()
    print("significant (sum-of-ranks gap):",
          ", ".join(ranking.significant_factors()))
    if args.lenth:
        for bench, table in result.effects.items():
            significant = lenth_test(table, args.alpha) \
                .significant_factors()
            print(f"Lenth-significant on {bench}: "
                  f"{', '.join(significant) or '(none)'}")
    if args.plot:
        from repro.reporting import render_half_normal

        for bench, table in result.effects.items():
            print()
            print(render_half_normal(
                table, alpha=args.alpha,
                title=f"Half-normal plot: {bench}",
            ))
    return 0


def cmd_classify(args) -> int:
    from repro.core import PAPER_SIMILARITY_THRESHOLD
    from repro.obs.telemetry import phase_of
    from repro.reporting import render_distance_matrix, render_groups

    if args.paper:
        from repro.core.paper_data import paper_table9_ranking

        obs = _Obs(args, "classify")
        ranking = paper_table9_ranking()
    else:
        run = _run_study(args, "classify", _screen)
        if run is None:
            return EXIT_INTERRUPTED
        obs, (ranking, _) = run
    threshold = args.threshold or PAPER_SIMILARITY_THRESHOLD
    with phase_of(obs.telemetry, "classify",
                  threshold=round(threshold, 3)):
        matrix = render_distance_matrix(ranking,
                                        title="Distance matrix")
        groups = render_groups(ranking, threshold, title="Groups")
    obs.finish()
    print(matrix)
    print()
    print(groups)
    return 0


def cmd_enhance(args) -> int:
    from functools import partial

    from repro.core import analyze_enhancement
    from repro.reporting import render_enhancement

    prefetch = args.lines if args.kind == "prefetch" else 0
    run = _run_study(args, "enhance", partial(
        analyze_enhancement, table_entries=args.table_entries,
        prefetch_lines=prefetch,
    ), grids=2)
    if run is None:
        return EXIT_INTERRUPTED
    obs, (analysis, _, _) = run
    obs.finish()
    print(render_enhancement(
        analysis, top=args.top,
        title=f"Sum-of-ranks shifts under {args.kind}",
    ))
    shift = analysis.biggest_shift_among_significant()
    print(f"\nbiggest shift among significant parameters: "
          f"{shift.factor} ({shift.sum_before} -> {shift.sum_after})")
    return 0


def cmd_simulate(args) -> int:
    from repro.cpu import MachineConfig, simulate
    from repro.workloads import benchmark_trace

    if args.benchmark not in BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    overrides = {}
    for item in args.set or []:
        try:
            key, value = item.split("=", 1)
        except ValueError:
            raise SystemExit(f"bad --set {item!r}; use field=value")
        try:
            overrides[key] = int(value)
        except ValueError:
            overrides[key] = value
    try:
        config = MachineConfig().evolve(**overrides)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad configuration: {exc}")
    trace = benchmark_trace(args.benchmark, args.length)
    stats = simulate(config, trace, warmup=not args.cold,
                     core=args.core)
    print(stats.summary())
    return 0


def cmd_characterize(args) -> int:
    from repro.workloads import benchmark_trace, characterization_report

    for name in _benchmark_names(args):
        print(characterization_report(
            benchmark_trace(name, args.length)
        ))
        print()
    return 0


def cmd_tables(args) -> int:
    from repro.core import PAPER_SIMILARITY_THRESHOLD
    from repro.core.paper_data import paper_table9_ranking
    from repro.doe import compute_effects, pb_design
    from repro.reporting import (
        render_design_cost_table,
        render_design_matrix,
        render_distance_matrix,
        render_effects,
        render_groups,
        render_parameter_values,
        render_ranking,
    )

    which = set(args.which or ["all"])
    everything = "all" in which

    if everything or "1" in which:
        print(render_design_cost_table(40), end="\n\n")
    if everything or "2" in which:
        print(render_design_matrix(pb_design(7), title="Table 2"),
              end="\n\n")
    if everything or "3" in which:
        print(render_design_matrix(pb_design(7).foldover(),
                                   title="Table 3"), end="\n\n")
    if everything or "4" in which:
        design = pb_design(7, factor_names=list("ABCDEFG"))
        table = compute_effects(design, [1, 9, 74, 28, 3, 6, 112, 84])
        print(render_effects(table, title="Table 4"), end="\n\n")
    if everything or "params" in which:
        print(render_parameter_values(), end="\n\n")
    if everything or "9" in which:
        print(render_ranking(paper_table9_ranking(),
                             title="Table 9 (paper's published data)"),
              end="\n\n")
    if everything or "10" in which:
        print(render_distance_matrix(paper_table9_ranking(),
                                     title="Table 10"), end="\n\n")
    if everything or "11" in which:
        print(render_groups(paper_table9_ranking(),
                            PAPER_SIMILARITY_THRESHOLD,
                            title="Table 11"), end="\n\n")
    return 0


def cmd_diffcore(args) -> int:
    from repro.cpu.equivalence import differential_sweep

    def progress(done, total, div):
        if div is not None:
            print(f"[{done}/{total}] DIVERGED {div.describe()}",
                  file=sys.stderr)
        elif done == total or done % 25 == 0:
            print(f"[{done}/{total}] ok", file=sys.stderr)

    try:
        found = differential_sweep(
            args.pairs, seed=args.seed,
            progress=progress if not args.quiet else None,
        )
    except RuntimeError as exc:
        raise SystemExit(f"repro diffcore: {exc}")
    if found:
        print(f"{len(found)} divergence(s) across {args.pairs} "
              "randomized pairs (batched-native vs reference):")
        for div in found:
            print(f"  {div.describe()}")
        print("a divergence is either a core bug (fix it) or an "
              "intentional timing change (bump SIMULATOR_VERSION "
              "and re-pin the goldens) — never a tolerance")
        return 1
    print(f"{args.pairs} randomized (config, trace) pairs: "
          "batched-native == reference field-exact")
    return 0


def cmd_bench_check(args) -> int:
    from repro.guard.bench import check_directory

    report = check_directory(
        args.baseline_dir, args.current,
        tolerance=args.tolerance,
        labels=[s.strip() for s in args.labels.split(",")
                if s.strip()] if args.labels else None,
    )
    print(report.describe())
    return report.status


def cmd_lint(args) -> int:
    from repro.analysis.cli import run

    return run(args)


def cmd_verify(args) -> int:
    from repro.guard.verify import verify_run

    report = verify_run(
        args.run_dir,
        manifest_path=args.manifest,
        journal_path=args.journal,
        results_path=args.results,
        cache_dir=args.cache_dir,
        spool_dir=args.spool,
    )
    print(report.describe())
    return report.status


def cmd_worker(args) -> int:
    from repro.dist.worker import DistWorker

    worker = DistWorker(
        args.spool,
        worker_id=args.worker_id,
        poll=args.poll,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        max_idle=args.max_idle,
        max_tasks=args.max_tasks,
        stream=not args.no_stream,
    )
    print(f"worker {worker.worker_id} attaching to {args.spool}",
          file=sys.stderr)
    try:
        executed = worker.run()
    except KeyboardInterrupt:
        print(f"worker {worker.worker_id} interrupted after "
              f"{worker.executed} task(s); the broker reclaims any "
              "leased work", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(f"worker {worker.worker_id} done: {executed} task(s) "
          "executed", file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    import json
    import os
    import time

    from repro.obs.fleet import fleet_snapshot

    if not os.path.isdir(args.root):
        raise SystemExit(f"no such directory: {args.root}")
    if args.once:
        snap = fleet_snapshot(
            args.root, heartbeat_grace=args.heartbeat_grace
        )
        print(json.dumps(snap.to_dict(), indent=2, sort_keys=True))
        return 0
    try:
        while True:
            snap = fleet_snapshot(
                args.root, heartbeat_grace=args.heartbeat_grace
            )
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(snap.render())
            if snap.complete:
                print("run complete", file=sys.stderr)
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


def cmd_obs_export(args) -> int:
    import json
    import os

    if not os.path.isdir(args.root):
        raise SystemExit(f"no such directory: {args.root}")
    if args.format == "prometheus":
        from collections import Counter

        from repro.obs.export import prometheus_text
        from repro.obs.fleet import fleet_snapshot

        snap = fleet_snapshot(args.root)
        metrics = snap.metrics
        for key in ("done", "total"):
            metrics.set_gauge(f"progress.{key}",
                              snap.progress.get(key, 0))
        states = Counter(view.state for view in snap.workers)
        for state, count in states.items():
            metrics.set_gauge(f"fleet.workers.{state}", count)
        text = prometheus_text(metrics.snapshot())
    else:
        from repro.obs.stream import (
            find_stream_lanes,
            scan_stream,
            trace_from_streams,
        )

        lanes = find_stream_lanes(args.root)
        if not lanes:
            raise SystemExit(
                f"no event-log lanes (*.events.jsonl) under "
                f"{args.root}"
            )
        scans = [scan_stream(path) for path in lanes]
        text = json.dumps(trace_from_streams(scans), sort_keys=True)
    if args.out:
        from pathlib import Path

        from repro.guard import faults

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        faults.publish_text(out, text, retries=2)
        print(f"wrote {args.format} export to {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_journal_scan(args) -> int:
    import os

    from repro.exec import scan_journal

    if not os.path.exists(args.path):
        raise SystemExit(f"no such journal: {args.path}")
    if os.path.getsize(args.path) == 0:
        # A zero-length journal is a normal state (a run that died
        # before its first checkpoint, or one created by --journal
        # and interrupted immediately) — not damage.
        print(f"{args.path}: empty journal (0 bytes); nothing to "
              "scan — a resume starts from scratch")
        return 0
    version = None if args.any_version else _default_sim_version()
    scan = scan_journal(args.path, version=version)
    print(f"{scan.path}: {scan.total} line(s), {scan.valid} valid")
    for lineno, reason in scan.invalid:
        print(f"  line {lineno}: {reason}")
    if scan.torn_tail:
        print(f"  torn tail: truncating would keep {scan.keep_bytes} "
              "bytes (run 'repro journal repair')")
    return 1 if scan.invalid else 0


def cmd_journal_repair(args) -> int:
    import os

    from repro.exec import repair_journal

    if not os.path.exists(args.path):
        raise SystemExit(f"no such journal: {args.path}")
    if os.path.getsize(args.path) == 0:
        print(f"{args.path}: empty journal (0 bytes); nothing to "
              "repair — a resume starts from scratch")
        return 0
    version = None if args.any_version else _default_sim_version()
    repair = repair_journal(args.path, version=version)
    scan = repair.scan
    print(f"{scan.path}: {scan.total} line(s), {scan.valid} valid")
    if repair.truncated_bytes:
        print(f"  truncated torn tail: {repair.truncated_bytes} "
              "byte(s) removed")
    else:
        print("  no torn tail")
    for lineno, reason in scan.damage:
        print(f"  line {lineno}: {reason} (left in place; a resume "
              "will drop it)")
    if scan.damage:
        print(f"  {len(scan.damage)} damaged line(s) remain; "
              "their cells will re-simulate on resume")
    return 0


def cmd_gc(args) -> int:
    import json
    import os

    from repro.guard.retention import gc_run_dir

    if not os.path.isdir(args.run_dir):
        raise SystemExit(f"no such directory: {args.run_dir}")
    report = gc_run_dir(
        args.run_dir,
        spool_budget_results=args.spool_budget_results,
        compact=args.compact_journal,
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(f"{args.run_dir}: gc {verb}:")
    print(f"  spool: {report.spool_results_removed} consumed results "
          f"({report.spool_results_bytes} bytes), "
          f"{report.spool_tmp_removed} orphaned temp files")
    print(f"  journal: {report.journal_lines_dropped} lines dropped "
          f"({report.journal_bytes_freed} bytes freed)")
    for path, reasons in sorted(report.dropped.items()):
        breakdown = ", ".join(f"{reason}: {count}"
                              for reason, count in sorted(reasons.items()))
        print(f"    {path}: {breakdown}")
    return 0


def cmd_cache_stats(args) -> int:
    import json
    import os

    from repro.guard.retention import cache_stats

    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"no such cache directory: {args.cache_dir}")
    stats = cache_stats(args.cache_dir)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0
    dropped = ", ".join(f"{reason}: {count}"
                        for reason, count in sorted(stats.dropped.items()))
    print(f"{stats.path}: {stats.entries} valid of {stats.lines} "
          f"segment lines, {stats.bytes} bytes"
          + (f"; dropped ({dropped})" if dropped else "")
          + (f"; {stats.legacy_entries} legacy *.pkl files ignored"
             if stats.legacy_entries else ""))
    return 0


def _default_sim_version():
    """The current simulator version tag (lazy import)."""
    from repro.cpu import SIMULATOR_VERSION

    return SIMULATOR_VERSION


def _add_study_parser(sub, name, help):
    """A cell-executing command's parser: what :func:`_run_study` reads."""
    p = sub.add_parser(name, help=help)
    _add_workload_args(p)
    _add_core_arg(p)
    _add_exec_args(p)
    _add_obs_args(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_study_parser(sub, "screen", "PB parameter screen (§4.1)")
    p.add_argument("--lenth", action="store_true",
                   help="also report Lenth-significant factors")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="Lenth significance level (default 0.05)")
    p.add_argument("--plot", action="store_true",
                   help="draw a text half-normal plot per benchmark")
    p.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="write every artifact of a verifiable run under DIR "
             "(journal, manifest, metrics, event log, sealed "
             "results); "
             "check it later with 'repro verify DIR'",
    )
    p.set_defaults(func=cmd_screen)

    p = _add_study_parser(sub, "classify", "benchmark classification (§4.2)")
    p.add_argument("--paper", action="store_true",
                   help="use the paper's published Table 9 data")
    p.add_argument("--threshold", type=float, default=None,
                   help="similarity threshold (default sqrt(4000))")
    p.set_defaults(func=cmd_classify)

    p = _add_study_parser(sub, "enhance", "enhancement analysis (§4.3)")
    p.add_argument("--kind", choices=["precompute", "prefetch"],
                   default="precompute")
    p.add_argument("--table-entries", type=int, default=128,
                   help="precomputation table size (default 128)")
    p.add_argument("--lines", type=_positive_int, default=2,
                   help="prefetch lines, at least 1 (default 2)")
    p.add_argument("--top", type=int, default=12,
                   help="shifts to display (default 12)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="run one benchmark once")
    p.add_argument("benchmark", help="benchmark name")
    p.add_argument("--length", "-n", type=int, default=10000)
    _add_core_arg(p)
    p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                   help="override a MachineConfig field (repeatable)")
    p.add_argument("--cold", action="store_true",
                   help="skip the functional warmup")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("characterize",
                       help="classical workload characterization")
    _add_workload_args(p, default_length=8000)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("tables", help="print the paper's exact exhibits")
    p.add_argument("which", nargs="*",
                   help="subset: 1 2 3 4 params 9 10 11 (default all)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "diffcore",
        help="differential-equivalence sweep of the compiled kernel "
             "against the reference oracle",
    )
    p.add_argument("--pairs", "-p", type=_positive_int, default=25,
                   help="randomized (config, trace) pairs to compare, "
                        "at least 1 (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed; the pair sequence is a pure "
                        "function of it (default %(default)s)")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="suppress per-pair progress on stderr")
    p.set_defaults(func=cmd_diffcore)

    p = sub.add_parser(
        "bench",
        help="benchmark-manifest regression checks",
    )
    bsub = p.add_subparsers(dest="action", required=True)
    pc = bsub.add_parser(
        "check",
        help="compare fresh BENCH_<label>.json manifests against "
             "committed baselines (exit 0 ok / 1 regression / "
             "2 incomparable)",
    )
    pc.add_argument("current", metavar="CURRENT_DIR",
                    help="directory of freshly emitted BENCH manifests "
                         "(pytest benchmarks/ --manifest-dir DIR)")
    pc.add_argument("--baseline-dir", default="benchmarks/baselines",
                    metavar="DIR",
                    help="committed baselines (default %(default)s)")
    pc.add_argument("--tolerance", type=float, default=0.5,
                    metavar="FRACTION",
                    help="allowed fractional slowdown of wall time "
                         "before it counts as a perf regression "
                         "(default %(default)s); deterministic "
                         "simulator totals always compare exact")
    pc.add_argument("--labels", default=None, metavar="L1,L2",
                    help="check only these labels (default: every "
                         "baseline present)")
    pc.set_defaults(func=cmd_bench_check)

    p = sub.add_parser(
        "lint",
        help="determinism & fork-safety static analysis (REP0xx)",
    )
    from repro.analysis.cli import add_arguments

    add_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "verify",
        help="cross-check a finished run's artifacts (exit 0/1/2)",
    )
    p.add_argument("run_dir", metavar="RUN_DIR",
                   help="directory written by 'repro screen --run-dir'")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="manifest path (default RUN_DIR/manifest.json)")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="journal path (default RUN_DIR/journal.jsonl)")
    p.add_argument("--results", default=None, metavar="FILE",
                   help="results path (default RUN_DIR/results.json)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default RUN_DIR/cache)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="distributed spool directory "
                        "(default RUN_DIR/spool, checked if present)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "worker",
        help="attach a distributed grid worker to a spool directory",
    )
    p.add_argument("spool", metavar="SPOOL_DIR",
                   help="shared spool directory (the broker side is "
                        "'repro screen --dist SPOOL_DIR')")
    p.add_argument("--worker-id", default=None, metavar="ID",
                   help="stable worker identity (default w<pid>)")
    p.add_argument("--poll", type=float, default=0.05,
                   metavar="SECONDS",
                   help="sleep between empty spool scans "
                        "(default %(default)s)")
    p.add_argument("--lease-ttl", type=float, default=15.0,
                   metavar="SECONDS",
                   help="wall-clock budget written into each claimed "
                        "ticket's lease (default %(default)s)")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="heartbeat period (default %(default)s)")
    p.add_argument("--max-idle", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after this long without work (default: "
                        "wait for the broker's drain marker)")
    p.add_argument("--max-tasks", type=int, default=None, metavar="N",
                   help="exit after executing N tickets (chaos "
                        "harness; default unbounded)")
    p.add_argument("--no-stream", action="store_true",
                   help="skip the worker's event-log lane "
                        "(stream/<id>.events.jsonl under the spool)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "top",
        help="live fleet view aggregated from the spool and event log",
    )
    p.add_argument("root", metavar="DIR",
                   help="run directory, spool directory, or stream "
                        "directory")
    p.add_argument("--once", action="store_true",
                   help="print one machine-readable JSON snapshot and "
                        "exit instead of refreshing")
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="refresh period (default %(default)s)")
    p.add_argument("--heartbeat-grace", type=float, default=5.0,
                   metavar="SECONDS",
                   help="beat age past which a worker shows as "
                        "stalled (default %(default)s)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "obs",
        help="telemetry tooling over the event stream",
    )
    obsub = p.add_subparsers(dest="action", required=True)
    pe = obsub.add_parser(
        "export",
        help="export Prometheus text or a Perfetto trace "
             "reconstructed from the event log (works on "
             "interrupted runs)",
    )
    pe.add_argument("root", metavar="DIR",
                    help="run directory, spool directory, or stream "
                         "directory")
    pe.add_argument("--format", required=True,
                    choices=["prometheus", "perfetto"],
                    help="output format")
    pe.add_argument("--out", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    pe.set_defaults(func=cmd_obs_export)

    p = sub.add_parser(
        "journal",
        help="inspect or repair a checkpoint journal",
    )
    jsub = p.add_subparsers(dest="action", required=True)
    ps = jsub.add_parser(
        "scan", help="classify every line without modifying the file"
    )
    ps.add_argument("path", help="journal file")
    ps.add_argument("--any-version", action="store_true",
                    help="skip the simulator-version check")
    ps.set_defaults(func=cmd_journal_scan)
    pr = jsub.add_parser(
        "repair",
        help="truncate a torn tail; report remaining damage",
    )
    pr.add_argument("path", help="journal file")
    pr.add_argument("--any-version", action="store_true",
                    help="skip the simulator-version check")
    pr.set_defaults(func=cmd_journal_repair)

    p = sub.add_parser(
        "gc",
        help="garbage-collect a run or cache directory's stores: "
             "remove journal-covered spool results, and compact the "
             "journal and cache segment on request",
    )
    p.add_argument("run_dir", metavar="DIR",
                   help="directory written by '--run-dir' "
                        "(journal.jsonl, cache/, spool/ as present), "
                        "or a '--cache-dir' (segment.jsonl)")
    p.add_argument("--spool-budget-results", type=int, default=None,
                   metavar="N",
                   help="remove journal-covered spool results, oldest "
                        "first, to at most N files (default: remove "
                        "all consumed)")
    p.add_argument("--compact-journal", action="store_true",
                   help="also rewrite journal.jsonl and the "
                        "cache segment keeping the last valid "
                        "line per key (atomic; invalid and duplicate "
                        "lines dropped and counted per reason)")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without "
                        "deleting anything")
    p.add_argument("--json", action="store_true",
                   help="print the GC report as JSON")
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser(
        "cache",
        help="result-cache inventory",
    )
    csub = p.add_subparsers(dest="action", required=True)
    pcs = csub.add_parser(
        "stats",
        help="valid and dropped segment lines of a cache directory",
    )
    pcs.add_argument("cache_dir", metavar="CACHE_DIR",
                     help="a --cache-dir directory (or RUN_DIR/cache)")
    pcs.add_argument("--json", action="store_true",
                     help="print the inventory as JSON")
    pcs.set_defaults(func=cmd_cache_stats)

    return parser


def _run_under_fault_spec(args) -> int:
    """Run a cell-executing command under ``REPRO_FAULT_SPEC``.

    The spec is parsed before any cell runs, so a bad one is a usage
    error (exit 2) rather than a crash mid-screen, and the injector is
    uninstalled when the command returns.
    """
    from repro.guard import faults

    try:
        injector = faults.from_env()
    except ValueError as exc:
        print(f"bad {faults.ENV_VAR}: {exc}", file=sys.stderr)
        return 2
    if injector is None:
        return args.func(args)
    with faults.injected(injector):
        return args.func(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.func in (cmd_screen, cmd_classify, cmd_enhance, cmd_worker):
        return _run_under_fault_spec(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
