"""``repro.testing`` is test-only: the library never imports it, it
loads neither NumPy nor hypothesis, and every oracle in it names the
code that retired its path."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.testing import oracles

SRC = Path(__file__).resolve().parents[1] / "src"


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_nothing_in_the_library_imports_it():
    testing = SRC / "repro" / "testing"
    offenders = [
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if testing not in path.parents
        and any(name == "repro.testing" or name.startswith("repro.testing.")
                for name in _imports(path))
    ]
    assert offenders == []


def test_importing_it_loads_neither_numpy_nor_hypothesis():
    # a fresh environment, but one that writes no bytecode into ``src/``
    # when the suite's does not
    env = {"PYTHONPATH": str(SRC)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.testing; "
         "print(sorted({'numpy', 'hypothesis'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.strip()
    assert loaded == "[]"


def _resolve(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            target = getattr(target, name)
        return target
    raise ImportError(dotted)


def test_every_oracle_names_the_code_that_retired_its_path():
    assert oracles.__all__
    for name in oracles.__all__:
        doc = getattr(oracles, name).__doc__ or ""
        retired_by = re.search(r"Retired by: ``([\w.]+)``", doc)
        assert retired_by, name
        assert _resolve(retired_by.group(1)) is not None, name


def test_it_lints_clean_without_a_pragma():
    for path in (SRC / "repro" / "testing").glob("*.py"):
        assert "repro-lint" not in path.read_text(encoding="utf-8"), path
