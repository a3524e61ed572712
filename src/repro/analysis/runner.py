"""The repro-lint runner: walk, check, report.

``run_lint`` is the library entry (tests drive it directly over
fixture trees); ``main`` is the CLI entry behind ``repro lint``.

Exit codes: 0 — no findings; 1 — any finding not suppressed by a
same-line pragma (or a file that fails to parse); 2 — usage errors
(unknown rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import checkers as _checkers  # noqa: F401 - registers rules
from repro.analysis import project as _project  # noqa: F401 - registers rules
from repro.analysis.core import CHECKERS, Checker, Finding, SourceFile
from repro.util.registry import UnknownNameError

__all__ = [
    "LintResult",
    "build_parser",
    "configure_parser",
    "execute",
    "main",
    "run_lint",
]

#: the JSON report schema version (CI artifacts parse this)
REPORT_VERSION = 2


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    root: Path
    checked_files: int
    rules: list[str]
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_dict(self) -> dict:
        """The stable ``--format json`` shape."""
        return {
            "version": REPORT_VERSION,
            "tool": "repro-lint",
            "root": str(self.root),
            "checked_files": self.checked_files,
            "rules": list(self.rules),
            "summary": {
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "errors": len(self.errors),
                "ok": self.ok,
            },
            "findings": [f.to_dict() for f in self.findings],
            "errors": list(self.errors),
        }

    def render(self) -> str:
        """The human report."""
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.format())
        for error in self.errors:
            lines.append(f"error: {error}")
        lines.append("")
        lines.append(
            f"repro-lint: {self.checked_files} files, "
            f"{len(self.rules)} rules: "
            f"{len(self.findings)} findings, "
            f"{self.suppressed} suppressed by pragma"
        )
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines)


def _iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # de-duplicate while preserving order (overlapping path args)
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def resolve_rules(rule_names: list[str] | None) -> list[Checker]:
    """The checkers to run (all registered rules by default)."""
    if not rule_names:
        return [checker for _name, checker in CHECKERS.items()]
    selected: list[Checker] = []
    for name in rule_names:
        selected.append(CHECKERS.get(name))  # raises UnknownNameError
    return selected


def run_lint(
    paths: list[Path] | None = None,
    *,
    root: Path | None = None,
    rules: list[str] | None = None,
    project_checks: bool = True,
) -> LintResult:
    """Run the checkers.

    ``paths`` defaults to ``<root>/src/repro``; ``root`` (default: the
    current directory) anchors the repo-relative paths findings use.  ``project_checks=False`` skips the registry
    introspection checkers — fixture trees have no registries to
    introspect.
    """
    root = (root or Path.cwd()).resolve()
    if paths is None:
        paths = [root / "src" / "repro"]
    checkers = resolve_rules(rules)
    ast_checkers = [c for c in checkers if not c.project_level]
    project_checkers = [c for c in checkers if c.project_level]

    findings: list[Finding] = []
    suppressed = 0
    errors: list[str] = []
    files = _iter_python_files(paths)
    for file in files:
        rel = _rel_path(file, root)
        try:
            src = SourceFile.load(file, rel)
        except SyntaxError as exc:
            errors.append(f"{rel}: cannot parse: {exc.msg} (line {exc.lineno})")
            continue
        for checker in ast_checkers:
            if not checker.applies_to(rel):
                continue
            for finding in checker.check(src):
                if src.suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)

    if project_checks:
        for checker in project_checkers:
            findings.extend(checker.check_project(root))

    findings.sort(key=Finding.sort_key)
    return LintResult(
        root=root,
        checked_files=len(files),
        rules=[c.rule for c in checkers],
        findings=findings,
        suppressed=suppressed,
        errors=errors,
    )


def render_rule_list() -> str:
    """``repro lint --list``: rule id, one-line contract, file scope —
    the scenario CLI's ``--list`` idiom."""
    lines = ["rules:"]
    for name, checker in CHECKERS.items():
        kind = "project" if checker.project_level else "ast"
        lines.append(f"  {name:24s} [{kind:7s}] {checker.contract}")
        lines.append(f"  {'':24s} {'':9s} scope: {checker.scope}")
    lines.append("")
    lines.append("pragma:      # repro-lint: disable=<rule>[,<rule>...]   "
                 "(same line)")
    return "\n".join(lines)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments (shared between the standalone parser
    and the ``repro lint`` subcommand)."""
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                        "(default: src/repro under --root)")
    parser.add_argument("--list", action="store_true",
                        help="enumerate rules, contracts and scopes")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="report format")
    parser.add_argument("--output", type=Path, default=None, metavar="FILE",
                        help="also write the JSON report to FILE "
                        "(CI artifact upload)")
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root anchoring relative paths "
                        "(default: the current directory)")
    parser.add_argument("--rules", default=None, metavar="RULE[,RULE...]",
                        help="run only these rules")
    parser.add_argument("--no-project-checks", action="store_true",
                        help="skip the registry-introspection checkers "
                        "(fixture trees)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repro-lint: the repo's contract checkers "
        "(determinism, batch-first, fork safety, ...)",
    )
    configure_parser(parser)
    return parser


def execute(args: argparse.Namespace) -> int:
    """Run the lint command from parsed arguments (the CLI's
    ``repro lint`` entry calls this directly)."""
    if args.list:
        print(render_rule_list())
        return 0

    rules = args.rules.split(",") if args.rules else None
    try:
        result = run_lint(
            paths=[p for p in args.paths] or None,
            root=args.root,
            rules=rules,
            project_checks=not args.no_project_checks,
        )
    except UnknownNameError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.output is not None:
        args.output.write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    return execute(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
