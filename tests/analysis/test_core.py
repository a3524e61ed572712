"""Unit tests for the repro-lint core: findings, pragmas, source files."""

import ast
from pathlib import Path

from repro.analysis.core import (
    CHECKERS,
    Finding,
    SourceFile,
    dotted_name,
    parse_pragmas,
)


def _load(tmp_path: Path, text: str, rel: str = "mod.py") -> SourceFile:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return SourceFile.load(path, rel)


class TestFinding:
    def test_format_is_path_line_col_rule_message(self):
        f = Finding("wall-clock", "a/b.py", 12, 4, "no wall clock")
        assert f.format() == "a/b.py:12:4: wall-clock: no wall clock"

    def test_to_dict_is_the_json_finding_shape(self):
        f = Finding("r", "p.py", 3, 1, "m")
        assert f.to_dict() == {
            "rule": "r", "path": "p.py", "line": 3, "col": 1, "message": "m",
        }

    def test_sort_key_orders_by_location(self):
        findings = [
            Finding("r", "b.py", 1, 0, "m"),
            Finding("r", "a.py", 9, 0, "m"),
            Finding("r", "a.py", 2, 0, "m"),
        ]
        ordered = sorted(findings, key=Finding.sort_key)
        assert [(f.path, f.line) for f in ordered] == [
            ("a.py", 2), ("a.py", 9), ("b.py", 1),
        ]


class TestParsePragmas:
    def test_same_line_pragma(self):
        per_line = parse_pragmas("x = hash(v)  # repro-lint: disable=determinism-hash\n")
        assert per_line == {1: {"determinism-hash"}}

    def test_multiple_rules_comma_separated(self):
        per_line = parse_pragmas("y = 1  # repro-lint: disable=a-rule, b-rule\n")
        assert per_line[1] == {"a-rule", "b-rule"}

    def test_disable_file_on_own_line_is_no_pragma(self):
        # there is no file-wide scope: the comment matches nothing
        text = "# repro-lint: disable-file=wall-clock\nimport os\n"
        assert parse_pragmas(text) == {}

    def test_trailing_disable_file_is_no_pragma(self):
        text = "x = 1  # repro-lint: disable-file=wall-clock\n"
        assert parse_pragmas(text) == {}

    def test_whitespace_inside_the_pragma_is_tolerated(self):
        per_line = parse_pragmas("y = 1  #repro-lint:disable = a-rule ,b-rule\n")
        assert per_line == {1: {"a-rule", "b-rule"}}

    def test_pragmas_are_keyed_by_their_own_line(self):
        text = (
            "a = 1\n"
            "b = 2  # repro-lint: disable=wall-clock\n"
            "c = 3\n"
            "d = 4  # repro-lint: disable=determinism-hash\n"
        )
        assert parse_pragmas(text) == {
            2: {"wall-clock"}, 4: {"determinism-hash"},
        }

    def test_string_literals_never_suppress(self):
        text = 's = "# repro-lint: disable=determinism-hash"\n'
        assert parse_pragmas(text) == {}

    def test_unparseable_text_yields_no_pragmas(self):
        assert parse_pragmas("def broken(:\n") == {}


class TestSourceFile:
    def test_suppressed_by_line_pragma(self, tmp_path):
        src = _load(tmp_path, "x = hash(1)  # repro-lint: disable=determinism-hash\n")
        hit = Finding("determinism-hash", "mod.py", 1, 4, "m")
        miss = Finding("wall-clock", "mod.py", 1, 4, "m")
        assert src.suppressed(hit)
        assert not src.suppressed(miss)

    def test_line_pragma_suppresses_only_its_line(self, tmp_path):
        src = _load(tmp_path,
                    "x = hash(1)  # repro-lint: disable=determinism-hash\n"
                    "y = hash(2)\n")
        assert src.suppressed(Finding("determinism-hash", "mod.py", 1, 4, "m"))
        assert not src.suppressed(Finding("determinism-hash", "mod.py", 2, 4, "m"))

    def test_disable_file_comment_suppresses_no_line(self, tmp_path):
        src = _load(tmp_path, "# repro-lint: disable-file=wall-clock\nx = 1\ny = 2\n")
        for line in (1, 2, 3):
            assert not src.suppressed(Finding("wall-clock", "mod.py", line, 0, "m"))

    def test_enclosing_function(self, tmp_path):
        src = _load(tmp_path, "def outer():\n    def inner():\n        return hash(1)\n")
        call = next(
            n for n in ast.walk(src.tree) if isinstance(n, ast.Call)
        )
        assert src.enclosing_function(call).name == "inner"

    def test_in_loop_true_inside_for(self, tmp_path):
        src = _load(tmp_path, "for i in range(3):\n    f(i)\n")
        call = next(n for n in ast.walk(src.tree) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name) and n.func.id == "f")
        assert src.in_loop(call)

    def test_in_loop_stops_at_function_boundary(self, tmp_path):
        # a def inside a loop resets loop context: its body does not
        # execute per iteration
        src = _load(tmp_path,
                    "for i in range(3):\n"
                    "    def cb():\n"
                    "        return f(i)\n")
        call = next(n for n in ast.walk(src.tree) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name) and n.func.id == "f")
        assert not src.in_loop(call)


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(CHECKERS.names()) == {
            "determinism-random",
            "determinism-hash",
            "wall-clock",
            "batch-first",
            "numpy-gating",
            "fork-safety",
            "monotonic-clock",
            "metric-hygiene",
            "protocol-conformance",
            "registry-hygiene",
        }

    def test_every_checker_has_contract_and_scope(self):
        for name, checker in CHECKERS.items():
            assert checker.rule == name
            assert checker.contract
            assert checker.scope


class TestDottedName:
    def test_renders_attribute_chains(self):
        node = ast.parse("a.b.c()").body[0].value.func
        assert dotted_name(node) == "a.b.c"

    def test_non_name_roots_render_empty(self):
        node = ast.parse("get()().method").body[0].value
        assert dotted_name(node) == ""
