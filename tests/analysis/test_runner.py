"""The lint runner and CLI: exit codes, JSON schema, pragmas."""

import json
from pathlib import Path

import pytest

from repro.analysis.core import CHECKERS, Finding
from repro.analysis.runner import (
    REPORT_VERSION,
    LintResult,
    build_parser,
    main,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write_tree(tmp_path: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _args(tmp_path: Path, *extra: str) -> list[str]:
    return [str(tmp_path), "--root", str(tmp_path), "--no-project-checks",
            *extra]


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "x = 1\n"})
        assert main(_args(tmp_path)) == 0

    def test_violation_exits_one(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "import random\n"})
        assert main(_args(tmp_path)) == 1

    def test_parse_error_exits_one(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "def broken(:\n"})
        assert main(_args(tmp_path)) == 1

    def test_unknown_rule_exits_two(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "x = 1\n"})
        assert main(_args(tmp_path, "--rules", "no-such-rule")) == 2

    def test_disable_file_comment_suppresses_nothing(self, tmp_path):
        # only the same-line pragma accepts a finding: a file-wide
        # comment on its own line leaves the finding below it live
        _write_tree(tmp_path, {
            "mod.py": "# repro-lint: disable-file=determinism-random\n"
                      "import random\n",
        })
        result = run_lint([tmp_path], root=tmp_path, project_checks=False)
        assert [(f.rule, f.line) for f in result.findings] == [
            ("determinism-random", 2),
        ]
        assert result.suppressed == 0
        assert main(_args(tmp_path)) == 1

    def test_same_line_pragma_exits_zero(self, tmp_path):
        _write_tree(tmp_path, {
            "mod.py": "import random  # repro-lint: disable=determinism-random\n",
        })
        result = run_lint([tmp_path], root=tmp_path, project_checks=False)
        assert result.findings == []
        assert result.suppressed == 1
        assert main(_args(tmp_path)) == 0

    def test_pragma_for_another_rule_exits_one(self, tmp_path):
        _write_tree(tmp_path, {
            "mod.py": "import random  # repro-lint: disable=determinism-hash\n",
        })
        assert main(_args(tmp_path)) == 1

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CHECKERS.names():
            assert name in out
        assert "repro-lint: disable=" in out  # the pragma syntax is shown


    def test_list_prints_one_pragma_line(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        pragma_lines = [line for line in out.splitlines()
                        if line.startswith("pragma:")]
        assert len(pragma_lines) == 1
        assert "disable-file" not in out


class TestParser:
    def test_help_lists_no_baseline_flag(self):
        assert "baseline" not in build_parser().format_help()

    @pytest.mark.parametrize("flag", [
        ["--baseline", "LINT_BASELINE.json"],
        ["--no-baseline"],
        ["--write-baseline"],
    ])
    def test_removed_baseline_flags_are_usage_errors(self, tmp_path, flag):
        _write_tree(tmp_path, {"mod.py": "x = 1\n"})
        with pytest.raises(SystemExit) as exc:
            main(_args(tmp_path, *flag))
        assert exc.value.code == 2


class TestLintResult:
    def _result(self, **kwargs) -> LintResult:
        return LintResult(root=Path("/r"), checked_files=2,
                          rules=["wall-clock"], **kwargs)

    def test_ok_with_suppressed_findings_only(self):
        assert self._result(suppressed=3).ok

    def test_a_finding_is_not_ok(self):
        finding = Finding("wall-clock", "a.py", 1, 0, "m")
        assert not self._result(findings=[finding]).ok

    def test_an_error_is_not_ok(self):
        assert not self._result(errors=["a.py: cannot parse"]).ok

    def test_render_summary_counts_findings_and_pragmas(self):
        text = self._result(suppressed=1).render()
        assert text.splitlines()[-2:] == [
            "repro-lint: 2 files, 1 rules: 0 findings, 1 suppressed by pragma",
            "OK",
        ]

    def test_render_lists_findings_then_errors_then_fail(self):
        finding = Finding("wall-clock", "a.py", 4, 2, "no wall clock")
        lines = self._result(findings=[finding],
                             errors=["b.py: cannot parse"]).render().splitlines()
        assert lines[0] == "a.py:4:2: wall-clock: no wall clock"
        assert lines[1] == "error: b.py: cannot parse"
        assert lines[-1] == "FAIL"


class TestJsonReport:
    def test_schema_shape(self, tmp_path, capsys):
        _write_tree(tmp_path, {"mod.py": "import random\n"})
        exit_code = main(_args(tmp_path, "--format", "json"))
        data = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert data["version"] == REPORT_VERSION
        assert data["tool"] == "repro-lint"
        assert set(data) == {
            "version", "tool", "root", "checked_files", "rules", "summary",
            "findings", "errors",
        }
        assert set(data["summary"]) == {"findings", "suppressed", "errors", "ok"}
        assert data["summary"]["findings"] == 1
        assert data["summary"]["ok"] is False
        finding = data["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "determinism-random"
        assert finding["path"] == "mod.py"

    def test_summary_counts_pragma_suppressions(self, tmp_path, capsys):
        _write_tree(tmp_path, {
            "mod.py": "import random  # repro-lint: disable=determinism-random\n",
        })
        assert main(_args(tmp_path, "--format", "json")) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"] == {
            "findings": 0, "suppressed": 1, "errors": 0, "ok": True,
        }
        assert data["findings"] == []

    def test_parse_errors_reported(self, tmp_path, capsys):
        _write_tree(tmp_path, {"mod.py": "def broken(:\n"})
        assert main(_args(tmp_path, "--format", "json")) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["errors"] == 1
        assert data["errors"][0].startswith("mod.py: cannot parse")

    def test_output_file_matches_printed_json(self, tmp_path, capsys):
        _write_tree(tmp_path, {"mod.py": "import random\n"})
        report = tmp_path / "LINT.json"
        main(_args(tmp_path, "--format", "json", "--output", str(report)))
        assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)

    def test_output_file_written_alongside_human_report(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "x = 1\n"})
        report = tmp_path / "LINT.json"
        assert main(_args(tmp_path, "--output", str(report))) == 0
        data = json.loads(report.read_text())
        assert data["summary"]["ok"] is True


class TestRuleSelection:
    def test_rules_flag_restricts(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "import random\nx = hash('k')\n"})
        result = run_lint([tmp_path], root=tmp_path,
                          rules=["determinism-hash"], project_checks=False)
        assert {f.rule for f in result.findings} == {"determinism-hash"}

    def test_default_runs_all_ast_rules(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "x = 1\n"})
        result = run_lint([tmp_path], root=tmp_path, project_checks=False)
        assert set(result.rules) == set(CHECKERS.names())


class TestShippedTree:
    def test_repo_lints_clean(self):
        """The acceptance gate: the shipped tree has zero findings
        (project checkers included)."""
        result = run_lint(root=REPO_ROOT)
        assert result.errors == []
        assert [f.format() for f in result.findings] == []
        assert result.ok

    def test_introduced_violation_fails_the_tree(self, tmp_path):
        """Dropping one bad file into a copy of a lint scope flips the
        gate to non-zero."""
        _write_tree(tmp_path, {
            "topo/network.py": "def advance_clock(self, now):\n"
                               "    self.clock = now\n",
        })
        assert main(_args(tmp_path)) == 1
