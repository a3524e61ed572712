"""``benchmarks/`` holds one performance harness (``pipeline/``) and the
pytest-benchmark paper artefacts DESIGN.md §4 indexes — nothing else.

A ``bench_*.py`` with its own argparse, ``__main__`` block, timing loop
and JSON record is a second harness: its gates belong in tier-1 tests
and its numbers in a ``benchmarks/pipeline/`` workload.
"""

import ast
import re
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _indexed_patterns():
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## §4", 1)[1].split("\n## ", 1)[0]
    return {
        name.removesuffix(".py")
        for name in re.findall(r"`(bench_[\w*.]+)`", section)
    }


def _is_main_guard(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def test_every_bench_script_is_an_indexed_pytest_artefact():
    patterns = _indexed_patterns()
    scripts = sorted((REPO / "benchmarks").glob("bench_*.py"))
    assert scripts and patterns
    offenders = {}
    for script in scripts:
        tree = ast.parse(script.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imported = {
            alias.name for node in nodes if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            node.module for node in nodes if isinstance(node, ast.ImportFrom)
        }
        problems = []
        if not any(isinstance(node, ast.FunctionDef)
                   and node.name.startswith("test_") for node in nodes):
            problems.append("defines no test_* function")
        if "argparse" in imported:
            problems.append("imports argparse")
        if any(_is_main_guard(node) for node in tree.body):
            problems.append("has a __main__ block")
        if not any(fnmatch(script.stem, pattern) for pattern in patterns):
            problems.append("is not indexed by DESIGN.md §4")
        if problems:
            offenders[script.name] = problems
    assert not offenders, offenders


def test_every_bench_script_cited_under_src_exists():
    cited = {}
    for source in sorted((REPO / "src").rglob("*.py")):
        for path in re.findall(r"benchmarks/bench_\w+\.py",
                               source.read_text(encoding="utf-8")):
            cited.setdefault(path, source.relative_to(REPO))
    assert cited  # tss.py and defense/__init__.py point at artefacts
    missing = {path: str(where) for path, where in cited.items()
               if not (REPO / path).is_file()}
    assert not missing, missing
