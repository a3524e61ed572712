"""Project-level checkers: live-registry introspection.

Unlike the AST checkers these import the real registries and probe the
objects behind them — a new engine or runtime that under-implements
the :class:`~repro.scenario.datapath.Datapath` surface, or a preset whose
string keys stopped resolving, is caught here before any experiment
trips over it at runtime.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path
from typing import Iterator

from repro.analysis.core import Checker, Finding, register

__all__ = [
    "ProtocolConformanceChecker",
    "RegistryHygieneChecker",
]

#: where registry-level findings anchor (there is no single offending
#: source line; the registration site is the actionable place to look)
_BACKENDS_PATH = "src/repro/perf/factory.py"
_PRESETS_PATH = "src/repro/scenario/presets.py"
_FLEET_PRESETS_PATH = "src/repro/fleet/presets.py"


#: the runtime × shards cells probed per engine: the bare switch, the
#: inline RETA dispatcher, the same shards on worker processes
_PROBE_CELLS = (("inline", 1), ("inline", 2), ("processes", 2))


@register
class ProtocolConformanceChecker(Checker):
    """Every datapath the config product builds must expose the full
    ``Datapath`` surface — a new engine or runtime cannot silently
    under-implement it."""

    rule = "protocol-conformance"
    contract = ("every BACKENDS engine, and the scalar OvsSwitch the "
                "platform falls back to, in every runtime x shards cell "
                "DatapathConfig accepts, must build a datapath exposing "
                "the full Datapath surface (DATAPATH_SURFACE is the "
                "single source of truth)")
    scope = "engines x runtimes (builds each cell once)"
    project_level = True

    def check_project(self, root: Path) -> Iterator[Finding]:
        from repro.ovs.switch import OvsSwitch
        from repro.perf.factory import BACKENDS, PROFILES, DatapathConfig
        from repro.scenario.datapath import DATAPATH_SURFACE, Datapath

        profile = PROFILES.get("kernel")
        # each backend as the platform resolves it, and the scalar
        # OvsSwitch by class: it is the no-NumPy platform's ``ovs``
        engines = [(repr(name), name, BACKENDS.get(name))
                   for name in BACKENDS.names()]
        engines.append(("OvsSwitch", "ovs", lambda: OvsSwitch))
        for (label, name, resolve), (runtime, shards) in product(
                engines, _PROBE_CELLS):
            config = DatapathConfig(
                profile, name=f"lint-{name}", engine=name, runtime=runtime,
                shards=shards, seed=1,
            )
            cell = f"engine {label} ({runtime}, shards={shards})"
            try:
                config.check()
            except ValueError:
                continue  # the validation table rejects this cell
            datapath = None
            try:
                datapath = config._assemble(resolve())
                missing = sorted(
                    member for member in DATAPATH_SURFACE
                    if not hasattr(datapath, member)
                )
                for member in missing:
                    yield self.finding(
                        None, None,
                        f"{cell}: {type(datapath).__name__} is missing "
                        f"protocol member {member!r} — implement it or "
                        "raise loudly (silent under-implementation "
                        "diverges backends)",
                        path=_BACKENDS_PATH,
                    )
                if not missing and not isinstance(datapath, Datapath):
                    yield self.finding(
                        None, None,
                        f"{cell}: {type(datapath).__name__} fails the "
                        "runtime_checkable Datapath isinstance probe "
                        "despite exposing every member",
                        path=_BACKENDS_PATH,
                    )
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                yield self.finding(
                    None, None,
                    f"{cell} could not be built for the conformance "
                    f"probe: {type(exc).__name__}: {exc}",
                    path=_BACKENDS_PATH,
                )
            finally:
                close = getattr(datapath, "close", None)
                if close is not None:
                    close()


@register
class RegistryHygieneChecker(Checker):
    """Registered presets must name only resolvable registry keys and
    survive the dict round-trip (the CLI/JSON contract)."""

    rule = "registry-hygiene"
    contract = ("every SCENARIOS/FLEETS preset's string keys (surface, "
                "profile, backend, defenses, mobility) resolve, and "
                "from_dict(to_dict(spec)) == spec")
    scope = "SCENARIOS + FLEETS registries"
    project_level = True

    def check_project(self, root: Path) -> Iterator[Finding]:
        yield from self._check_scenarios()
        yield from self._check_fleets()

    def _check_scenarios(self) -> Iterator[Finding]:
        from repro.scenario import (
            BACKENDS,
            DEFENSES,
            PROFILES,
            SCENARIOS,
            SURFACES,
        )
        from repro.scenario.spec import DefenseUse, ScenarioSpec

        for name, spec in SCENARIOS.items():
            for axis, registry in (("surface", SURFACES),
                                   ("profile", PROFILES),
                                   ("backend", BACKENDS)):
                key = getattr(spec, axis)
                if key not in registry:
                    yield self.finding(
                        None, None,
                        f"scenario {name!r}: {axis} {key!r} is not a "
                        f"registered {registry.kind} "
                        f"(choices: {registry.names()})",
                        path=_PRESETS_PATH,
                    )
            for use in spec.defenses:
                defense = DefenseUse.from_any(use)
                if defense.name not in DEFENSES:
                    yield self.finding(
                        None, None,
                        f"scenario {name!r}: defense {defense.name!r} is "
                        f"not registered (choices: {DEFENSES.names()})",
                        path=_PRESETS_PATH,
                    )
            try:
                round_tripped = ScenarioSpec.from_dict(spec.to_dict())
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                yield self.finding(
                    None, None,
                    f"scenario {name!r}: to_dict/from_dict round-trip "
                    f"raised {type(exc).__name__}: {exc}",
                    path=_PRESETS_PATH,
                )
                continue
            if round_tripped != spec:
                yield self.finding(
                    None, None,
                    f"scenario {name!r}: from_dict(to_dict(spec)) != spec "
                    "— the spec is no longer pure, portable data",
                    path=_PRESETS_PATH,
                )

    def _check_fleets(self) -> Iterator[Finding]:
        from repro.fleet import FLEETS, MOBILITY
        from repro.fleet.spec import FLEET_DEFENSES, FleetSpec

        for name, spec in FLEETS.items():
            if spec.mobility not in MOBILITY:
                yield self.finding(
                    None, None,
                    f"fleet {name!r}: mobility {spec.mobility!r} is not "
                    f"registered (choices: {MOBILITY.names()})",
                    path=_FLEET_PRESETS_PATH,
                )
            if spec.fleet_defense not in FLEET_DEFENSES:
                yield self.finding(
                    None, None,
                    f"fleet {name!r}: fleet_defense {spec.fleet_defense!r} "
                    f"is unknown (choices: {sorted(FLEET_DEFENSES)})",
                    path=_FLEET_PRESETS_PATH,
                )
            try:
                round_tripped = FleetSpec.from_dict(spec.to_dict())
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                yield self.finding(
                    None, None,
                    f"fleet {name!r}: to_dict/from_dict round-trip raised "
                    f"{type(exc).__name__}: {exc}",
                    path=_FLEET_PRESETS_PATH,
                )
                continue
            if round_tripped != spec:
                yield self.finding(
                    None, None,
                    f"fleet {name!r}: from_dict(to_dict(spec)) != spec — "
                    "the spec is no longer pure, portable data",
                    path=_FLEET_PRESETS_PATH,
                )
