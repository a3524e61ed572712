"""The declarative fleet description: N nodes × mobility × defenses.

A :class:`FleetSpec` wraps one per-node
:class:`~repro.scenario.spec.ScenarioSpec` (every hypervisor in the
fleet runs that cell of the scenario matrix, re-seeded per node via the
``shard_seed`` pattern) and adds the fleet-only axes: node count,
attacker mobility, and the fleet-level defense.  Like scenario specs it
round-trips through plain dicts, so fleets are JSON/CLI-addressable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.defense.detector import DEFAULT_MASK_THRESHOLD
from repro.scenario.spec import ScenarioSpec

#: fleet-level defenses (per-node defenses live on the scenario spec)
FLEET_DEFENSES = ("none", "quarantine")


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to reproduce one fleet campaign."""

    #: the per-node scenario (every node runs this cell, re-seeded)
    scenario: ScenarioSpec
    #: hypervisor nodes on the fabric
    nodes: int = 4
    #: attacker mobility policy (:data:`repro.fleet.mobility.MOBILITY`)
    mobility: str = "rolling"
    #: seconds the rolling attacker dwells on a node before moving on
    dwell: float = 10.0
    #: seconds between nodes joining under ``staggered`` (0 = ``dwell``)
    stagger: float = 0.0
    #: fleet-level defense: "none" or "quarantine" (observe per-node
    #: detectors/guards; isolate flagged nodes and migrate their victim
    #: load over the fabric)
    fleet_defense: str = "none"
    #: per-tenant mask threshold each node's anomaly detector flags at
    detect_threshold: int = DEFAULT_MASK_THRESHOLD
    #: seconds between fleet detector observations
    detect_interval: float = 5.0
    #: display name
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.scenario, Mapping):
            object.__setattr__(
                self, "scenario", ScenarioSpec.from_dict(self.scenario)
            )
        if not isinstance(self.scenario, ScenarioSpec):
            raise TypeError(
                f"scenario must be a ScenarioSpec or dict, got "
                f"{type(self.scenario).__name__}"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"fleet-{self.scenario.name}-{self.nodes}"
            )
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.dwell <= 0:
            raise ValueError(f"dwell must be positive, got {self.dwell}")
        if self.stagger < 0:
            raise ValueError(f"stagger must be >= 0 (0 = dwell), got {self.stagger}")
        if self.fleet_defense not in FLEET_DEFENSES:
            raise ValueError(
                f"unknown fleet_defense {self.fleet_defense!r}; "
                f"valid: {list(FLEET_DEFENSES)}"
            )
        if self.detect_threshold < 1:
            raise ValueError("detect_threshold must be positive")
        if self.detect_interval <= 0:
            raise ValueError("detect_interval must be positive")

    # -- registry validation ------------------------------------------------

    def validate(self) -> "FleetSpec":
        """Resolve every registry name (scenario registries included);
        returns self for chaining."""
        from repro.fleet.mobility import MOBILITY

        self.scenario.validate()
        MOBILITY.get(self.mobility)
        return self

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict form (JSON-friendly) that omits defaults."""
        data: dict[str, Any] = {"scenario": self.scenario.to_dict()}
        for spec_field in dataclasses.fields(self):
            if spec_field.name == "scenario":
                continue
            value = getattr(self, spec_field.name)
            if spec_field.name == "name" and value == (
                f"fleet-{self.scenario.name}-{self.nodes}"
            ):
                continue
            if value != spec_field.default:
                data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(
                f"unknown FleetSpec fields {sorted(extra)}; valid: {sorted(known)}"
            )
        if "scenario" not in data:
            raise ValueError("a FleetSpec dict needs a 'scenario' entry")
        return cls(**dict(data))

    def evolve(self, **changes: Any) -> "FleetSpec":
        """A copy with fields replaced (CLI overrides)."""
        return dataclasses.replace(self, **changes)
