"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_screen_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.benchmarks == "gzip,mcf"
        assert args.length == 4000
        assert not args.lenth

    def test_simulate_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "gzip", "--set", "rob_entries=64"]
        )
        assert args.set == ["rob_entries=64"]


class TestTablesCommand:
    def test_table2_exact(self, capsys):
        assert main(["tables", "2"]) == 0
        out = capsys.readouterr().out
        assert "+1 +1 +1 -1 +1 -1 -1" in out

    def test_table4_exact(self, capsys):
        assert main(["tables", "4"]) == 0
        out = capsys.readouterr().out
        assert "-225" in out

    def test_table11_from_paper(self, capsys):
        assert main(["tables", "11"]) == 0
        out = capsys.readouterr().out
        assert "gzip, mesa" in out
        assert "vpr-Route, parser, bzip2" in out

    def test_all_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 2", "Table 4", "Table 10", "Table 11",
                       "Plackett and Burman"):
            assert marker in out


class TestSimulateCommand:
    def test_runs_and_prints_stats(self, capsys):
        assert main(["simulate", "gzip", "-n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "IPC=" in out
        assert "instructions=1000" in out

    def test_config_override(self, capsys):
        assert main(["simulate", "gzip", "-n", "1000",
                     "--set", "branch_predictor=perfect"]) == 0
        out = capsys.readouterr().out
        assert "mispredict_rate=0.000%" in out

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["simulate", "povray"])

    def test_bad_override_field(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--set", "warp_factor=9"])

    def test_bad_override_syntax(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--set", "justakey"])

    def test_cold_flag(self, capsys):
        assert main(["simulate", "gzip", "-n", "1000", "--cold"]) == 0


class TestCharacterizeCommand:
    def test_report(self, capsys):
        assert main(["characterize", "-b", "gzip", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "gzip: 1500 instructions" in out
        assert "miss-rate curve" in out

    def test_unknown(self):
        with pytest.raises(SystemExit):
            main(["characterize", "-b", "quake3"])


class TestClassifyCommand:
    def test_paper_mode(self, capsys):
        assert main(["classify", "--paper"]) == 0
        out = capsys.readouterr().out
        assert "89.8" in out
        assert "gzip, mesa" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "-b", "doom"])


class TestExecFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.retry == 1
        assert args.task_timeout is None
        assert args.on_error == "raise"
        assert args.journal is None
        assert not args.resume

    def test_bad_retry_rejected(self):
        with pytest.raises(SystemExit):
            main(["screen", "--retry", "0"])

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_task_timeout_is_a_usage_error(
            self, value, tmp_path, monkeypatch, capsys):
        # Rejected before any cell runs: a negative budget used to
        # time out every cell, and 0 silently meant "no budget".
        import repro.exec.engine as engine

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(engine, "_execute_cell", no_cells)
        with pytest.raises(SystemExit, match="--task-timeout") as err:
            main(["screen", "-b", "gzip", "-n", "300", "--jobs", "2",
                  "--task-timeout", value, "--on-error", "skip",
                  "--run-dir", str(tmp_path / "run")])
        assert err.value.code == 2
        assert "--task-timeout" in capsys.readouterr().err
        assert not (tmp_path / "run" / "journal.jsonl").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--jobs", "0"], "--jobs"),
        (["--retry", "0"], "--retry"),
        (["--audit", "1.5"], "--audit"),
    ])
    def test_library_rejection_names_the_flag(self, argv, flag):
        with pytest.raises(SystemExit, match=flag) as err:
            main(["screen", *argv])
        assert err.value.code == 2

    def test_existing_journal_needs_resume(self, tmp_path):
        journal = tmp_path / "screen.journal"
        journal.write_text("")
        with pytest.raises(SystemExit, match="--resume"):
            main(["screen", "--journal", str(journal)])

    def test_resume_needs_journal(self):
        with pytest.raises(SystemExit, match="--journal"):
            main(["screen", "--resume"])


class TestFaultSpec:
    """``REPRO_FAULT_SPEC`` is parsed before any cell runs."""

    @pytest.mark.parametrize("item, reason", [
        ("raise:-1", "index must be >= 0"),
        ("rename:0:1:0.5", "rename takes no seconds"),
    ], ids=["task", "io"])
    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys,
                                       monkeypatch, item, reason):
        import repro.exec.engine as engine

        def no_simulate(*args, **kwargs):
            raise AssertionError("a cell ran under a bad spec")

        monkeypatch.setattr(engine, "simulate", no_simulate)
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"kill:5,{item}")
        run_dir = tmp_path / "run"
        assert main(["screen", "-b", "gzip", "-n", "800",
                     "--run-dir", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"bad REPRO_FAULT_SPEC: {item}: {reason}" in err
        assert not (run_dir / "results.json").exists()

    @pytest.mark.parametrize("command", ["classify", "enhance", "worker"])
    def test_every_cell_running_command_checks_it(self, tmp_path, capsys,
                                                  monkeypatch, command):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode:1")
        argv = [command] + ([str(tmp_path / "spool")]
                            if command == "worker" else [])
        assert main(argv) == 2
        assert "bad REPRO_FAULT_SPEC: explode:1: unknown action" in \
            capsys.readouterr().err

    def test_injector_is_scoped_to_the_command(self, tmp_path,
                                               monkeypatch):
        from repro.guard import faults

        monkeypatch.setenv("REPRO_FAULT_SPEC", "rename:1000000")
        assert main(["worker", str(tmp_path / "spool"),
                     "--poll", "0.01", "--max-idle", "0.05"]) == 0
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        assert faults.active() is None


class TestInterruptHandling:
    def _interrupt_run(self, monkeypatch):
        from repro.core import PBExperiment

        def interrupted(self, **kwargs):
            progress = self.progress
            if progress is not None:
                progress(7, 176)
            raise KeyboardInterrupt

        monkeypatch.setattr(PBExperiment, "run", interrupted)

    def test_screen_exits_130_with_summary(self, monkeypatch, capsys):
        self._interrupt_run(monkeypatch)
        assert main(["screen"]) == 130
        err = capsys.readouterr().err
        assert "interrupted after 7 completed cells" in err
        assert "--journal" in err

    def test_screen_summary_names_journal(self, monkeypatch, capsys,
                                          tmp_path):
        self._interrupt_run(monkeypatch)
        journal = str(tmp_path / "screen.journal")
        assert main(["screen", "--journal", journal]) == 130
        err = capsys.readouterr().err
        assert f"--journal {journal} --resume" in err

    def test_classify_exits_130(self, monkeypatch, capsys):
        self._interrupt_run(monkeypatch)
        assert main(["classify"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_enhance_exits_130(self, monkeypatch, capsys):
        self._interrupt_run(monkeypatch)
        assert main(["enhance"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestFailureFinishesTelemetry:
    """A study that raises still writes its run dir's artifacts, as
    ``failed``, before the exception leaves the command (exit 1)."""

    def _assert_failed_run_dir(self, run_dir):
        import json

        from repro.obs.stream import scan_stream

        run = json.loads((run_dir / "manifest.json").read_text())
        assert run["outcome"]["exit_status"] == "failed"
        assert (run_dir / "metrics.jsonl").read_text()
        scan = scan_stream(run_dir / "stream" / "main.events.jsonl")
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "failed"
        opened = {r.sid for r in scan.records if r.kind == "span-open"}
        closed = {r.sid for r in scan.records if r.kind == "span-close"}
        assert opened == closed
        assert not (run_dir / "results.json").exists()

    def test_ranking_nothing_under_skip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:0:always")
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="at least one benchmark"):
            main(["screen", "-b", "gzip", "-n", "300",
                  "--on-error", "skip", "--run-dir", str(run_dir)])
        self._assert_failed_run_dir(run_dir)

    def test_fault_raised_out_of_the_grid(self, tmp_path, monkeypatch):
        from repro.guard.faults import InjectedFault

        monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:0:always")
        run_dir = tmp_path / "run"
        with pytest.raises(InjectedFault):
            main(["screen", "-b", "gzip", "-n", "300",
                  "--run-dir", str(run_dir)])
        self._assert_failed_run_dir(run_dir)


    @pytest.mark.parametrize("jobs, error", [(1, "InjectedFault"),
                                             (2, "GridError")])
    def test_grid_span_closes_marked_error(self, tmp_path, monkeypatch,
                                           jobs, error):
        from repro.exec import GridError
        from repro.guard.faults import InjectedFault
        from repro.obs.stream import scan_stream

        monkeypatch.setenv("REPRO_FAULT_SPEC", "raise:0:always")
        run_dir = tmp_path / "run"
        with pytest.raises((InjectedFault, GridError)):
            main(["screen", "-b", "gzip", "-n", "300", "--jobs", str(jobs),
                  "--run-dir", str(run_dir)])
        scan = scan_stream(run_dir / "stream" / "main.events.jsonl")
        (grid,) = [r.sid for r in scan.records
                   if r.kind == "span-open" and r.name == "grid"]
        (close,) = [r.attrs for r in scan.records
                    if r.kind == "span-close" and r.sid == grid]
        assert close == {"completed": 0, "failures": 0, "jobs": jobs,
                         "tasks": 88, "outcome": "error", "error": error}


class TestLintCommand:
    """``repro lint`` — the determinism analysis as a subcommand.

    Exit-status contract: 0 clean, 1 findings, 2 usage error.
    """

    def test_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_1(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\nx = os.getenv('X')\n")
        assert main(["lint", str(dirty)]) == 1
        assert "REP006" in capsys.readouterr().out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), "--select", "REP999"]) == 2

    def test_json_format(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REP002"

    def test_baseline_workflow(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\nx = os.getenv('X')\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(dirty),
                     "--write-baseline", str(baseline)]) == 0
        assert main(["lint", str(dirty),
                     "--baseline", str(baseline)]) == 0

    def test_src_repro_is_clean(self):
        """The shipped tree passes its own gate through the CLI."""
        from pathlib import Path

        import repro

        assert main(["lint", str(Path(repro.__file__).parent)]) == 0


@pytest.mark.slow
class TestExperimentCommands:
    def test_screen_small(self, capsys):
        assert main(["screen", "-b", "gzip", "-n", "800",
                     "--lenth", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Parameter ranks" in out
        assert "significant" in out
        assert "Lenth-significant on gzip" in out
        assert "Half-normal plot: gzip" in out

    def test_enhance_precompute_small(self, capsys):
        assert main(["enhance", "-b", "gzip", "-n", "800"]) == 0
        out = capsys.readouterr().out
        assert "Sum-of-ranks shifts under precompute" in out

    def test_enhance_prefetch_small(self, capsys):
        assert main(["enhance", "-b", "equake", "-n", "800",
                     "--kind", "prefetch"]) == 0
        out = capsys.readouterr().out
        assert "Sum-of-ranks shifts under prefetch" in out

    @pytest.mark.parametrize("kind, library", [
        ("precompute", {}),
        ("prefetch", {"prefetch_lines": 2}),
    ])
    def test_enhance_is_the_library_study(self, capsys, kind, library):
        """``repro enhance`` prints the rendering of
        :func:`analyze_enhancement` on the same traces: one path."""
        from repro.core import analyze_enhancement
        from repro.reporting import render_enhancement
        from repro.workloads import benchmark_suite

        assert main(["enhance", "-b", "gzip,mcf", "-n", "400",
                     "--kind", kind]) == 0
        out = capsys.readouterr().out
        analysis, _, _ = analyze_enhancement(
            benchmark_suite(length=400, names=["gzip", "mcf"]),
            **library)
        shift = analysis.biggest_shift_among_significant()
        assert out == render_enhancement(
            analysis, top=12,
            title=f"Sum-of-ranks shifts under {kind}",
        ) + ("\n\nbiggest shift among significant parameters: "
             f"{shift.factor} ({shift.sum_before} -> "
             f"{shift.sum_after})\n")

    def test_enhance_prefetch_needs_a_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enhance", "--kind", "prefetch", "--lines", "0"])
        assert exc.value.code == 2

    def test_screen_with_journal_then_resume(self, capsys, tmp_path,
                                             monkeypatch):
        journal = str(tmp_path / "screen.journal")
        assert main(["screen", "-b", "gzip", "-n", "800",
                     "--journal", journal]) == 0
        first = capsys.readouterr().out
        # Resume: every cell comes off the journal, no simulation.
        import repro.exec.engine as engine

        def no_simulate(*args, **kwargs):
            raise AssertionError("resume must not re-simulate")

        monkeypatch.setattr(engine, "simulate", no_simulate)
        assert main(["screen", "-b", "gzip", "-n", "800",
                     "--journal", journal, "--resume"]) == 0
        second = capsys.readouterr().out
        assert second == first


class TestObservabilityFlags:
    """--trace/--metrics/--manifest on screen/classify/enhance."""

    SCREEN = ["screen", "-b", "gzip", "-n", "300"]

    def test_flags_default_off(self):
        args = build_parser().parse_args(["screen"])
        assert args.trace is None
        assert args.metrics is None
        assert args.manifest is None

    def test_screen_writes_all_artifacts(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        manifest = tmp_path / "run.json"
        assert main(self.SCREEN + [
            "--trace", str(trace), "--metrics", str(metrics),
            "--manifest", str(manifest),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "M"}
        lines = [json.loads(line)
                 for line in metrics.read_text().splitlines()]
        names = {entry["name"] for entry in lines}
        assert {"grid.tasks", "tasks.completed", "sim.cycles"} <= names
        run = json.loads(manifest.read_text())
        assert run["run"]["command"] == "screen"
        assert run["run"]["simulator_version"]
        assert run["run"]["fingerprint"]
        assert run["run"]["settings"]["jobs"] == 1
        assert run["run"]["artifacts"]["trace"] == str(trace)
        assert run["outcome"]["exit_status"] == "completed"
        assert run["outcome"]["metrics"]

    def test_output_identical_with_and_without_telemetry(
            self, tmp_path, capsys):
        assert main(self.SCREEN) == 0
        bare = capsys.readouterr().out
        assert main(self.SCREEN + [
            "--trace", str(tmp_path / "t.json"),
            "--metrics", str(tmp_path / "m.jsonl"),
        ]) == 0
        assert capsys.readouterr().out == bare

    def test_manifest_alone_arms_metrics_only(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "run.json"
        assert main(self.SCREEN + ["--manifest", str(manifest)]) == 0
        run = json.loads(manifest.read_text())
        assert run["outcome"]["metrics"]["tasks.completed"]["value"] \
            == 88

    def test_enhance_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "run.json"
        assert main([
            "enhance", "-b", "gzip", "-n", "200",
            "--manifest", str(manifest),
        ]) == 0
        run = json.loads(manifest.read_text())
        assert run["run"]["command"] == "enhance"
        # both screens of the study accumulate into one registry
        assert run["outcome"]["metrics"]["tasks.completed"]["value"] \
            == 176

    def test_interrupt_still_writes_manifest(self, monkeypatch,
                                             tmp_path, capsys):
        import json

        from repro.core import PBExperiment

        def interrupted(self, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(PBExperiment, "run", interrupted)
        manifest = tmp_path / "run.json"
        assert main(["screen", "--manifest", str(manifest)]) == 130
        run = json.loads(manifest.read_text())
        assert run["outcome"]["exit_status"] == "interrupted"


class TestGuardFlags:
    def test_audit_default_off(self):
        args = build_parser().parse_args(["screen"])
        assert args.audit is None
        assert args.audit_seed == 0
        assert args.run_dir is None

    def test_bad_audit_fraction_rejected(self):
        with pytest.raises(SystemExit):
            main(["screen", "-b", "gzip", "-n", "600",
                  "--audit", "1.5"])

    def test_screen_with_audit_over_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["screen", "-b", "gzip", "-n", "600",
                     "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["screen", "-b", "gzip", "-n", "600",
                     "--cache-dir", cache, "--audit", "0.2"]) == 0
        second = capsys.readouterr().out
        assert second == first   # clean audit: bit-identical output


class TestVerifyCommand:
    def test_missing_run_dir_inconclusive(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nowhere")]) == 2
        assert "INCONCLUSIVE" in capsys.readouterr().out


class TestJournalCommands:
    def _journal(self, tmp_path):
        from repro.cpu import MachineConfig, simulate
        from repro.exec import Journal
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        stats = simulate(MachineConfig(), trace, warmup=True)
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            for i in range(3):
                journal.record(f"key-{i}" + "0" * 58, stats)
        return path

    def test_scan_clean_exits_zero(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        assert main(["journal", "scan", str(path)]) == 0
        assert "3 valid" in capsys.readouterr().out

    def test_scan_torn_exits_one(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        assert main(["journal", "scan", str(path)]) == 1
        out = capsys.readouterr().out
        assert "torn" in out

    def test_repair_truncates_torn_tail(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-20])
        assert main(["journal", "repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "truncated torn tail" in out
        # Idempotent and now clean.
        assert main(["journal", "scan", str(path)]) == 0
        assert path.stat().st_size < size

    def test_repair_reports_midfile_damage_but_keeps_it(self, tmp_path,
                                                        capsys):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"sha": "', b'"sha": "f')
        path.write_bytes(b"".join(lines))
        before = path.read_bytes()
        assert main(["journal", "repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "line 2: checksum" in out
        assert path.read_bytes() == before   # evidence preserved

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["journal", "scan", str(tmp_path / "absent.jsonl")])


class TestDistFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.dist is None
        assert args.dist_attach_grace == 10.0
        assert args.dist_heartbeat_grace == 2.5

    def test_bad_dist_options_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--dist"):
            main(["screen", "--dist", str(tmp_path / "spool"),
                  "--dist-heartbeat-grace", "0"])

    def test_degraded_dist_screen_completes(self, tmp_path, capsys):
        # A spool nobody attaches to must not break the science: the
        # broker degrades and the screen finishes locally.
        spool = tmp_path / "spool"
        with pytest.warns(RuntimeWarning,
                          match="no distributed worker"):
            assert main(["screen", "-b", "gzip", "-n", "300",
                         "--dist", str(spool),
                         "--dist-attach-grace", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Parameter ranks" in out


class TestWorkerCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["worker", "spool-dir"])
        assert args.spool == "spool-dir"
        assert args.worker_id is None
        assert args.poll == 0.05
        assert args.lease_ttl == 15.0
        assert args.heartbeat_interval == 0.5
        assert args.max_idle is None
        assert args.max_tasks is None

    def test_idle_worker_exits_zero(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert main(["worker", str(spool), "--worker-id", "w-cli",
                     "--poll", "0.01", "--max-idle", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "worker w-cli attaching" in err
        assert "done: 0 task(s) executed" in err
        assert (spool / "hb" / "w-cli.hb").exists()

    def test_drained_spool_stops_worker(self, tmp_path):
        from repro.dist.spool import Spool

        spool = Spool(tmp_path / "spool")
        spool.ensure()
        spool.drain()
        assert main(["worker", str(spool.root)]) == 0


class TestDiffcoreCommand:
    """``repro diffcore`` fails unless it compared the kernel with the
    reference on at least one pair."""

    @pytest.mark.parametrize("pairs", ["0", "-2"])
    def test_no_pairs_is_a_usage_error(self, pairs, capsys):
        with pytest.raises(SystemExit) as err:
            main(["diffcore", "--pairs", pairs])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_clean_sweep_names_both_cores(self, capsys):
        from repro.cpu.native import _load

        if _load() is None:
            pytest.skip("no C toolchain / native kernel build failed")
        assert main(["diffcore", "--pairs", "1", "--quiet"]) == 0
        assert "batched-native == reference field-exact" in \
            capsys.readouterr().out

    def test_no_kernel_fails_with_the_reason(self, no_kernel, capsys):
        with pytest.raises(SystemExit) as err:
            main(["diffcore", "--pairs", "1", "--quiet"])
        assert no_kernel in str(err.value.code)
        assert "field-exact" not in capsys.readouterr().out
