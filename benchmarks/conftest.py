"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (DESIGN.md §4 indexes
them) and *prints* it, so ``pytest benchmarks/bench_*.py
--benchmark-only -s`` doubles as the reproduction report (the glob: a
directory argument collects only ``test_*.py``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: every regenerated table/figure is also appended here, so a plain
#: ``pytest benchmarks/bench_*.py --benchmark-only`` run (with print
#: capture on) still leaves the full reproduction report on disk
ARTIFACT_LOG = Path(__file__).resolve().parent.parent / "bench_artifacts.txt"


def emit(title: str, body: str) -> None:
    """Print one regenerated artefact with a banner (shown with -s) and
    append it to ``bench_artifacts.txt``."""
    banner = "=" * max(len(title), 20)
    block = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(block)
    with open(ARTIFACT_LOG, "a") as log:
        log.write(block)


@pytest.fixture(scope="session")
def cost_model():
    from repro.perf.costmodel import CostModel

    return CostModel()
