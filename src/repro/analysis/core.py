"""The repro-lint core: findings, checkers, pragmas, source files.

The framework is deliberately small: a :class:`Finding` is one
violation, a :class:`Checker` is one machine-checked contract, and
:data:`CHECKERS` is the string-keyed registry tying rule ids to
checkers (the same :class:`~repro.util.registry.Registry` the scenario
axes use, so ``repro lint --list`` mirrors ``repro scenario --list``).

Two checker families exist:

* **AST checkers** implement :meth:`Checker.check` and are handed one
  parsed :class:`SourceFile` at a time; scoping is by repo-relative
  path (:meth:`Checker.applies_to`).
* **Project checkers** set ``project_level = True`` and implement
  :meth:`Checker.check_project` — they import the live registries and
  introspect them (protocol conformance, registry hygiene), so they
  run once per lint invocation, not per file.

Suppression is explicit and reviewable: a trailing
``# repro-lint: disable=<rule>[,<rule>...]`` pragma silences matching
findings on that line.  Every other finding fails the lint run.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.util.registry import Registry

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "SourceFile",
    "parse_pragmas",
]

#: the pragma grammar: ``# repro-lint: disable=a,b`` (same line)
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation at one location.

    ``path`` is repo-relative (posix separators) so reports read the
    same in every checkout.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        """The stable JSON shape (``--format json`` / CI artifacts)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def parse_pragmas(text: str) -> dict[int, set[str]]:
    """Extract same-line suppression pragmas from source text.

    Returns a line-number -> rule-id-set map.  Comments are found with
    :mod:`tokenize` so pragma lookalikes inside string literals never
    suppress anything.
    """
    per_line: dict[int, set[str]] = {}
    lines = iter(text.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        per_line.setdefault(token.start[0], set()).update(rules)
    return per_line


@dataclass
class SourceFile:
    """One parsed module handed to every applicable AST checker."""

    path: Path
    #: repo-relative posix path — what scoping and reports use
    rel: str
    text: str
    tree: ast.Module
    disabled_lines: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, rel=rel, text=text, tree=tree,
                   disabled_lines=parse_pragmas(text))

    def suppressed(self, finding: Finding) -> bool:
        """Whether a same-line pragma silences this finding."""
        return finding.rule in self.disabled_lines.get(finding.line, ())

    def parents(self) -> dict[ast.AST, ast.AST]:
        """A child -> parent map over the module AST (computed lazily;
        several checkers need ancestry for loop/function context)."""
        cached = getattr(self, "_parents", None)
        if cached is None:
            cached = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    cached[child] = node
            self._parents = cached
        return cached

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The nearest enclosing function/async-function def, if any."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return None

    def in_loop(self, node: ast.AST) -> bool:
        """Whether the node sits inside a loop (or comprehension) body,
        without crossing a nested function boundary."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.For, ast.AsyncFor, ast.While,
                                    ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parents.get(current)
        return False


class Checker:
    """One machine-checked contract.

    Subclasses set ``rule`` (the id pragmas and reports use),
    ``contract`` (the one-line statement ``--list`` prints) and
    ``scope`` (the human-readable file scope), then implement
    :meth:`check` — or set ``project_level = True`` and implement
    :meth:`check_project`.
    """

    rule: str = ""
    contract: str = ""
    scope: str = "src/repro"
    #: project checkers introspect live registries instead of file ASTs
    project_level: bool = False

    def applies_to(self, rel: str) -> bool:
        """Whether this checker runs on the file at repo-relative
        ``rel`` (AST checkers only)."""
        return True

    def check(self, src: SourceFile) -> Iterator[Finding]:
        """Yield findings for one source file (AST checkers)."""
        return iter(())

    def check_project(self, root: Path) -> Iterator[Finding]:
        """Yield findings for the project as a whole (project
        checkers)."""
        return iter(())

    # -- helpers shared by the concrete checkers ---------------------------

    def finding(self, src: SourceFile | None, node: ast.AST | None,
                message: str, *, path: str = "", line: int = 1) -> Finding:
        if src is not None and node is not None:
            return Finding(
                rule=self.rule,
                path=src.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        return Finding(rule=self.rule, path=path, line=line, col=0,
                       message=message)


#: rule id -> checker instance; registration order is presentation
#: order in ``repro lint --list``
CHECKERS: Registry[Checker] = Registry("lint rule")


def register(checker_cls: type[Checker]) -> type[Checker]:
    """Class decorator: instantiate and register a checker under its
    rule id."""
    CHECKERS.register(checker_cls.rule, checker_cls())
    return checker_cls


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains (empty for anything
    else) — the matcher most checkers use to spot API calls."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""

