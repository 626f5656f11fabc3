"""Framework behaviour: config, baselines, reporters, exit codes.

The checkers are tested in ``test_checkers.py``; here we pin down the
machinery around them — rule selection, TOML configuration, baseline
absorb/write, report determinism, and the 0/1/2 exit-status contract
of both entry points.
"""

import json

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    ConfigError,
    default_checkers,
    load_baseline,
    load_config,
    render_json,
    render_text,
    write_baseline,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

DIRTY = 'import os\nlevel = os.getenv("X")\n'
CLEAN = "def f(x):\n    return x\n"


def run_analyzer(tmp_path, sources, config=None):
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    analyzer = Analyzer(default_checkers(), config)
    return analyzer.analyze_paths([tmp_path], root=tmp_path)


class TestSelection:
    def test_ignore_drops_rule(self, tmp_path):
        result = run_analyzer(
            tmp_path, {"a.py": DIRTY},
            AnalysisConfig(ignore=["REP006"]),
        )
        assert result.clean

    def test_select_runs_only_listed(self, tmp_path):
        source = DIRTY + "import time\nt = time.time()\n"
        result = run_analyzer(
            tmp_path, {"a.py": source},
            AnalysisConfig(select=["REP002"]),
        )
        assert [f.rule for f in result.findings] == ["REP002"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="REP999"):
            Analyzer(default_checkers(),
                     AnalysisConfig(select=["REP999"]))

    def test_exclude_glob_skips_file(self, tmp_path):
        result = run_analyzer(
            tmp_path, {"a.py": DIRTY, "skip_me.py": DIRTY},
            AnalysisConfig(exclude=["skip_*.py"]),
        )
        assert {f.path for f in result.findings} == {"a.py"}


class TestConfigLoading:
    def test_explicit_toml(self, tmp_path):
        config_file = tmp_path / "lint.toml"
        config_file.write_text(
            'ignore = ["REP006"]\nallow_calls = ["time.time"]\n'
        )
        config = load_config(config_file)
        assert config.ignore == ["REP006"]
        assert config.allow_calls == {"time.time"}

    def test_pyproject_discovery(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.analysis]\nignore = [\"REP005\"]\n"
        )
        nested = tmp_path / "pkg"
        nested.mkdir()
        config = load_config(start=nested)
        assert config.ignore == ["REP005"]

    def test_bad_toml_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("select = not-toml [")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_ill_typed_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('select = "REP001"\n')
        with pytest.raises(ConfigError, match="list of strings"):
            load_config(bad)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('no_such_key = []\n')
        with pytest.raises(ConfigError, match="no_such_key"):
            load_config(bad)


class TestBaseline:
    def test_roundtrip_absorbs_old_findings(self, tmp_path):
        result = run_analyzer(tmp_path, {"a.py": DIRTY})
        assert len(result.findings) == 1
        baseline = tmp_path / "baseline.json"
        assert write_baseline(result.findings, baseline) == 1
        known = load_baseline(baseline)
        assert {f.fingerprint() for f in result.findings} == known

    def test_new_finding_not_absorbed(self, tmp_path):
        result = run_analyzer(tmp_path, {"a.py": DIRTY})
        baseline = tmp_path / "baseline.json"
        write_baseline(result.findings, baseline)
        known = load_baseline(baseline)
        fresh = run_analyzer(
            tmp_path, {"b.py": "import time\nt = time.time()\n"},
        )
        new = [f for f in fresh.findings
               if f.fingerprint() not in known]
        assert [f.rule for f in new] == ["REP002", "REP201"]

    def test_fingerprint_survives_line_shift(self, tmp_path):
        before = run_analyzer(tmp_path, {"a.py": DIRTY})
        shifted = "# a comment\n\n" + DIRTY
        after = run_analyzer(tmp_path, {"a.py": shifted})
        assert [f.fingerprint() for f in before.findings] == \
            [f.fingerprint() for f in after.findings]

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"fingerprints": "nope"}')
        with pytest.raises(ConfigError):
            load_baseline(bad)


class TestReporters:
    def test_text_report_lines(self, tmp_path):
        result = run_analyzer(tmp_path, {"a.py": DIRTY})
        text = render_text(result)
        assert "a.py:2:9: REP006" in text
        assert "1 finding" in text

    def test_json_report_shape(self, tmp_path):
        result = run_analyzer(tmp_path, {"a.py": DIRTY})
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP006"
        assert finding["path"] == "a.py"
        assert finding["fingerprint"]

    def test_reports_are_deterministic(self, tmp_path):
        sources = {"b.py": DIRTY, "a.py": DIRTY,
                   "c.py": "import time\nt = time.time()\n"}
        first = render_json(run_analyzer(tmp_path, sources))
        second = render_json(run_analyzer(tmp_path, sources))
        assert first == second
        paths = [f["path"] for f
                 in json.loads(first)["findings"]]
        assert paths == sorted(paths)


class TestParseErrors:
    def test_syntax_error_becomes_rep000(self, tmp_path):
        result = run_analyzer(tmp_path, {"a.py": "def broken(:\n"})
        assert [f.rule for f in result.findings] == ["REP000"]
        assert "does not parse" in result.findings[0].message


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == EXIT_CLEAN

    def test_findings_exit_1(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        assert "REP006" in capsys.readouterr().out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_USAGE

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(CLEAN)
        assert main([str(tmp_path), "--select", "REP999"]) == EXIT_USAGE

    def test_json_format_via_cli(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REP006"

    def test_write_then_use_baseline(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--write-baseline",
                     str(baseline)]) == EXIT_CLEAN
        capsys.readouterr()
        assert main([str(tmp_path), "--baseline",
                     str(baseline)]) == EXIT_CLEAN
        assert "1 absorbed by baseline" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("REP001", "REP004", "REP007"):
            assert code in out
