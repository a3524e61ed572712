"""The Scenario API: declarative experiment sessions over pluggable
datapath backends.

This package is the single public entry point for composing and running
experiments:

* :class:`~repro.scenario.spec.ScenarioSpec` — a declarative
  description of one cell of the paper's scenario matrix ({CMS surface}
  × {switch profile} × {attack shape} × {defense}), constructible from
  names and plain dicts;
* the **registries** (:data:`SURFACES`, :data:`PROFILES`,
  :data:`DEFENSES`, :data:`BACKENDS`, :data:`SCENARIOS`) — the
  string-keyed axes a spec draws from;
* :class:`~repro.scenario.session.Session` — the facade that builds the
  datapath, compiles the CMS policy, runs the campaign through the perf
  layer and returns a uniform
  :class:`~repro.scenario.session.ScenarioResult`;
* the :class:`~repro.scenario.datapath.Datapath` protocol — the
  classifier-backend interface extracted from
  :class:`~repro.ovs.switch.OvsSwitch`, with a bulk
  ``process_batch()`` entry point, behind which alternative backends
  (e.g. the cacheless/ESwitch reference) plug in.

Quick use::

    from repro.scenario import Session
    result = Session("fig3").run()
    print(result.render())
"""

from repro.scenario.datapath import DATAPATH_SURFACE, Datapath
from repro.scenario.registry import (
    BACKENDS,
    DEFENSES,
    PROFILES,
    SURFACES,
    DefenseAgent,
    Surface,
)
from repro.scenario.presets import SCENARIOS
from repro.scenario.session import MaskProbe, ScenarioResult, Session
from repro.scenario.spec import DefenseUse, ScenarioSpec

__all__ = [
    "BACKENDS",
    "DATAPATH_SURFACE",
    "DEFENSES",
    "Datapath",
    "DefenseAgent",
    "DefenseUse",
    "MaskProbe",
    "PROFILES",
    "SCENARIOS",
    "SURFACES",
    "ScenarioResult",
    "ScenarioSpec",
    "Session",
    "Surface",
]
