"""The AST checkers: the repo's documented contracts, machine-checked.

Each checker encodes one invariant the test suite can only spot-check
(determinism, monotonic clocks, batch-first hot paths, numpy gating,
fork safety).  They are all scoped by repo-relative path suffix, so the
same rules run unchanged over the shipped tree and over the fixture
snippets the test suite writes into temporary directories (a fixture at
``<tmp>/runtime/bad.py`` exercises the fork-safety rule exactly like
``src/repro/runtime/parallel.py`` does).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    dotted_name,
    register,
)

__all__ = [
    "BatchFirstChecker",
    "DeterminismHashChecker",
    "DeterminismRandomChecker",
    "ForkSafetyChecker",
    "MetricHygieneChecker",
    "MonotonicClockChecker",
    "NumpyGateChecker",
    "WallClockChecker",
]


def _segment_match(rel: str, segments: tuple[str, ...]) -> bool:
    parts = rel.split("/")
    return any(segment in parts for segment in segments)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@register
class DeterminismRandomChecker(Checker):
    """Seeded-RNG-only determinism: all randomness flows through
    :class:`~repro.util.rng.DeterministicRng`."""

    rule = "determinism-random"
    contract = ("randomness outside util/rng.py (random/secrets imports, "
                "os.urandom, uuid.uuid1/uuid4) breaks seeded reproducibility")
    scope = "src/repro (util/rng.py exempt)"

    #: module imports that smuggle in unseeded randomness
    _banned_imports = {"random", "secrets"}
    #: attribute chains whose *call* is nondeterministic
    _banned_calls = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

    def applies_to(self, rel: str) -> bool:
        return not rel.endswith("util/rng.py")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._banned_imports:
                        yield self.finding(
                            src, node,
                            f"import of {alias.name!r}: draw from a "
                            "seeded DeterministicRng (repro.util.rng) "
                            "instead of ambient randomness",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._banned_imports and node.level == 0:
                    yield self.finding(
                        src, node,
                        f"import from {node.module!r}: draw from a seeded "
                        "DeterministicRng (repro.util.rng) instead of "
                        "ambient randomness",
                    )
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain in self._banned_calls:
                    yield self.finding(
                        src, node,
                        f"{chain}() is nondeterministic; derive values "
                        "from the experiment seed",
                    )


@register
class DeterminismHashChecker(Checker):
    """``hash()`` on str/bytes is salted per process (PYTHONHASHSEED):
    any value derived from it varies between runs."""

    rule = "determinism-hash"
    contract = ("builtin hash() outside __hash__ is salted per process for "
                "str/bytes; derive values arithmetically (see shard_seed)")
    scope = "src/repro"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            enclosing = src.enclosing_function(node)
            if enclosing is not None and enclosing.name == "__hash__":
                # dunder __hash__ only steers dict/set bucketing, which
                # never leaks into simulation results
                continue
            yield self.finding(
                src, node,
                "builtin hash() is randomized per process for str/bytes "
                "inputs; use deterministic mixing (shard_seed-style "
                "arithmetic, zlib.crc32, hashlib) or suppress with a "
                "pragma if the argument provably hashes only ints",
            )


# ---------------------------------------------------------------------------
# wall clock
# ---------------------------------------------------------------------------

@register
class WallClockChecker(Checker):
    """Simulated time only: wall-clock reads belong in benchmarks/ and
    the serve loop's wall-pps snapshot."""

    rule = "wall-clock"
    contract = ("wall-clock reads (time.time/perf_counter/monotonic, "
                "datetime.now) are confined to benchmarks/ and the serve "
                "wall-pps snapshot allowlist")
    scope = "src/repro (benchmarks/ out of scope; serve run loop allowlisted)"

    _banned = {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }
    #: (path suffix, enclosing function) pairs allowed to read the wall
    #: clock — the serve loop's packets-per-second accounting and the
    #: obs exporter that assembles its wall-pps fields
    allowlist = (
        ("runtime/service.py", "run"),
        ("obs/export.py", "wall_pps_snapshot"),
    )

    def applies_to(self, rel: str) -> bool:
        return not _segment_match(rel, ("benchmarks",))

    def _allowed(self, rel: str, function: str | None) -> bool:
        return any(
            rel.endswith(suffix) and function == name
            for suffix, name in self.allowlist
        )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        # names imported straight off the time module count too:
        # ``from time import perf_counter`` then a bare call
        bare_names: dict[str, str] = {}
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if f"time.{alias.name}" in self._banned:
                        bare_names[alias.asname or alias.name] = alias.name
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            source = None
            if chain in self._banned:
                source = chain
            elif isinstance(node.func, ast.Name) and node.func.id in bare_names:
                source = f"time.{bare_names[node.func.id]}"
            if source is None:
                continue
            enclosing = src.enclosing_function(node)
            function = enclosing.name if enclosing is not None else None
            if self._allowed(src.rel, function):
                continue
            yield self.finding(
                src, node,
                f"{source}() reads the wall clock; simulation code must "
                "run on simulated time (pass `now`), and wall-clock "
                "measurement belongs in benchmarks/ or the serve "
                "snapshot allowlist",
            )


# ---------------------------------------------------------------------------
# metric hygiene
# ---------------------------------------------------------------------------

@register
class MetricHygieneChecker(Checker):
    """Telemetry's naming contract, checked at the call sites: metric
    and span names are lowercase dotted string *literals* registered
    through the :class:`~repro.obs.telemetry.Telemetry` registry, and
    instrumented modules don't keep ad-hoc string-keyed dict counters
    beside it (two counting schemes drift apart silently)."""

    rule = "metric-hygiene"
    contract = ("Telemetry counter/gauge/histogram and trace .record "
                "names must be lowercase dotted string literals "
                "(dimensions travel as labels); modules importing "
                "repro.obs must not grow ad-hoc `d['key'] += n` "
                "counters beside the registry")
    scope = "src/repro (dict-counter sub-rule: importers of repro.obs; " \
            "the obs package itself exempt)"

    #: lowercase dotted identifiers, two+ segments — kept in sync with
    #: repro.obs.telemetry.METRIC_NAME_RE (duplicated so the checker
    #: parses fixture trees without importing the instrumented package)
    _name_re = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
    #: receiver segments marking a Telemetry registry handle
    _telemetry_receivers = {"telemetry", "tele"}
    _register_calls = {"counter", "gauge", "histogram"}
    #: receiver segments marking a span recorder handle
    _trace_receivers = {"trace", "_trace"}

    def applies_to(self, rel: str) -> bool:
        # the registry/exporter implementation manipulates names and
        # aggregation dicts generically — the contract binds its callers
        return not _segment_match(rel, ("obs",))

    @staticmethod
    def _segments(chain: str) -> set[str]:
        return set(chain.split("."))

    def _imports_obs(self, src: SourceFile) -> bool:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0:2] == ["repro", "obs"]
                       for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "repro.obs" or module.startswith("repro.obs."):
                    return True
        return False

    def _check_name(self, src: SourceFile, node: ast.Call,
                    what: str) -> Iterator[Finding]:
        if not node.args:
            yield self.finding(
                src, node,
                f"{what} call without a positional name; pass the "
                "metric name as the first argument",
            )
            return
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield self.finding(
                src, node,
                f"{what} name must be a string literal (exporters "
                "need the full name set statically known); put dynamic "
                "dimensions in labels, not the name",
            )
            return
        if not self._name_re.match(name_arg.value):
            yield self.finding(
                src, node,
                f"{what} name {name_arg.value!r} is not a lowercase "
                "dotted identifier (expected e.g. 'sim.attacker.cycles')",
            )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            chain = dotted_name(node.func)
            segments = self._segments(chain)
            if (node.func.attr in self._register_calls
                    and segments & self._telemetry_receivers):
                yield from self._check_name(
                    src, node, f"telemetry .{node.func.attr}()"
                )
            elif (node.func.attr == "record"
                    and segments & self._trace_receivers):
                yield from self._check_name(src, node, "trace .record()")
        if not self._imports_obs(src):
            return
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.target, ast.Subscript)):
                continue
            key = node.target.slice
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            yield self.finding(
                src, node,
                f"ad-hoc dict counter [{key.value!r}] += ... in an "
                "instrumented module; register a Telemetry counter "
                "(labels for the dimensions) so the series shows up in "
                "every exporter",
            )


# ---------------------------------------------------------------------------
# batch-first
# ---------------------------------------------------------------------------

@register
class BatchFirstChecker(Checker):
    """The hot path is ``process_batch``: per-key ``.process()`` calls
    inside loops re-pay per-packet clock/revalidator overhead."""

    rule = "batch-first"
    contract = ("per-key .process() inside a loop: coalesce the keys and "
                "make one process_batch call (process() is the single-key "
                "special case)")
    scope = "src/repro"

    #: single-key delegation wrappers are the contract, not a violation
    _exempt_functions = {"process", "process_batch", "handle_miss"}

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "process"):
                continue
            if not src.in_loop(node):
                continue
            enclosing = src.enclosing_function(node)
            if enclosing is not None and enclosing.name in self._exempt_functions:
                continue
            yield self.finding(
                src, node,
                "per-key .process() in a loop; hoist the keys into one "
                ".process_batch(keys) burst (bit-identical results, "
                "amortised clock/revalidator work)",
            )


# ---------------------------------------------------------------------------
# numpy gating
# ---------------------------------------------------------------------------

@register
class NumpyGateChecker(Checker):
    """Everything outside :mod:`repro.vec` imports numpy-free; inside
    it, the only top-level numpy import is the try/ImportError gate
    behind ``HAVE_NUMPY``/``require_numpy``."""

    rule = "numpy-gating"
    contract = ("import numpy only inside repro.vec behind the HAVE_NUMPY "
                "try/ImportError gate (or via require_numpy); everything "
                "else stays numpy-free at import time")
    scope = "src/repro"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        in_vec = _segment_match(src.rel, ("vec",))
        parents = src.parents()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if not any(name.split(".")[0] == "numpy" for name in names):
                continue
            if not in_vec:
                yield self.finding(
                    src, node,
                    "direct numpy import outside repro.vec; go through "
                    "repro.vec.require_numpy()/HAVE_NUMPY so the module "
                    "imports (and degrades) without numpy",
                )
                continue
            # inside repro.vec: the import must be gated — inside a
            # try whose handlers catch ImportError, or deferred into a
            # function body
            if src.enclosing_function(node) is not None:
                continue
            current = parents.get(node)
            gated = False
            while current is not None:
                if isinstance(current, ast.Try):
                    for handler in current.handlers:
                        caught = handler.type
                        names_caught = []
                        if isinstance(caught, ast.Name):
                            names_caught = [caught.id]
                        elif isinstance(caught, ast.Tuple):
                            names_caught = [
                                e.id for e in caught.elts
                                if isinstance(e, ast.Name)
                            ]
                        if ("ImportError" in names_caught
                                or "ModuleNotFoundError" in names_caught):
                            gated = True
                    break
                current = parents.get(current)
            if not gated:
                yield self.finding(
                    src, node,
                    "top-level numpy import without the try/ImportError "
                    "HAVE_NUMPY gate; importing repro.vec must succeed "
                    "without numpy installed",
                )


# ---------------------------------------------------------------------------
# fork safety
# ---------------------------------------------------------------------------

@register
class ForkSafetyChecker(Checker):
    """The multi-process runtime's wire rule: per-packet
    ``PacketResult`` objects never cross the mailbox.  (The parent keeps
    no switch once workers fork — worker handles replace them in
    ``shards`` — so there is no parent-side copy left to guard.)"""

    rule = "fork-safety"
    contract = ("in runtime/: PacketResults (or .results lists) must "
                "never be sent over the worker mailbox")
    scope = "src/repro/runtime"

    #: mailbox send entry points
    _send_calls = {"send", "_send", "_broadcast", "_request"}

    def applies_to(self, rel: str) -> bool:
        return _segment_match(rel, ("runtime",))

    def _names_in(self, node: ast.AST) -> set[str]:
        names: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.Name):
                names.add(child.id)
        return names

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                yield from self._check_send(src, node)

    def _check_send(self, src: SourceFile, node: ast.Call) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in self._send_calls):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            names = self._names_in(arg)
            if "PacketResult" in names or "results" in names:
                yield self.finding(
                    src, node,
                    "mailbox send references PacketResult/.results: "
                    "per-packet objects must never be pickled across the "
                    "worker pipe — ship aggregate counters "
                    "(BATCH_WIRE_FIELDS) instead",
                )
                return


# ---------------------------------------------------------------------------
# monotonic clock
# ---------------------------------------------------------------------------

@register
class MonotonicClockChecker(Checker):
    """Simulated clocks only move forward: direct ``self.clock = now``
    assignments bypass the clamp helpers and can un-expire idle state.
    Every module is in scope: only a ``self.clock =`` assignment can
    fire the rule, whichever class owns the clock."""

    rule = "monotonic-clock"
    contract = ("`self.clock` assignments must clamp (max(...) or a "
                "`now > self.clock` guard); rewinding un-expires idle "
                "accounting and revalidator sweeps")
    scope = "src/repro"

    def _clamped(self, src: SourceFile, node: ast.Assign) -> bool:
        value = node.value
        # zero-initialisation in __init__ (or a reset) is not a rewind
        if isinstance(value, ast.Constant) and value.value in (0, 0.0):
            return True
        # the max(...) clamp idiom
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "max"):
            return True
        # the guarded-assignment clamp idiom:
        #   if now > self.clock: self.clock = now
        parents = src.parents()
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.If):
                for test_node in ast.walk(current.test):
                    if (isinstance(test_node, ast.Compare)
                            and any(isinstance(op, (ast.Gt, ast.GtE))
                                    for op in test_node.ops)
                            and any("clock" in dotted_name(part)
                                    for part in ([test_node.left]
                                                 + test_node.comparators))):
                        return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            current = parents.get(current)
        return False

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Assign):
                continue
            clock_targets = [
                target for target in node.targets
                if isinstance(target, ast.Attribute)
                and target.attr == "clock"
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ]
            if not clock_targets:
                continue
            if self._clamped(src, node):
                continue
            yield self.finding(
                src, node,
                "direct self.clock assignment without a monotonic clamp; "
                "use max(self.clock, now) or the `now > self.clock` "
                "guarded idiom (_advance)",
            )
