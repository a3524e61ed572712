"""repro-lint: the repo-specific static-analysis framework.

The reproduction rests on contracts the test suite can only
spot-check — bit-identical series across backends, seeded-RNG-only
determinism, monotonic simulated clocks, batch-first hot paths,
numpy-free imports outside :mod:`repro.vec`, and a frozen parent after
the parallel runtime forks.  This package machine-checks them:

* :mod:`repro.analysis.core` — :class:`Finding`, the :class:`Checker`
  base, the :data:`CHECKERS` registry, pragma parsing;
* :mod:`repro.analysis.checkers` — the AST rules (determinism,
  wall-clock, batch-first, numpy gating, fork safety, monotonic
  clocks);
* :mod:`repro.analysis.project` — the live-registry rules (Datapath
  protocol conformance, registry hygiene);
* :mod:`repro.analysis.runner` — ``repro lint``.

A finding is either fixed or suppressed by a trailing
``# repro-lint: disable=<rule>`` pragma on its own line; ``repro lint``
exits non-zero on anything else.
"""

from __future__ import annotations

from repro.analysis.core import CHECKERS, Checker, Finding, SourceFile
from repro.analysis.runner import LintResult, main, run_lint

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "LintResult",
    "SourceFile",
    "main",
    "run_lint",
]
