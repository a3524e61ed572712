"""Named, ready-to-run fleet campaigns (``repro fleet <name>``)."""

from __future__ import annotations

from repro.fleet.spec import FleetSpec
from repro.scenario.presets import SCENARIOS
from repro.scenario.spec import DefenseUse
from repro.util.registry import Registry

FLEETS: Registry[FleetSpec] = Registry("fleet campaign")

#: the per-node cell most fleet presets run: the k8s surface (512
#: masks) on the kernel profile, compressed to a fleet-friendly length
_K8S_NODE = SCENARIOS.get("k8s").evolve(duration=80.0, attack_start=10.0)

FLEETS.register(
    "fleet-rolling16",
    FleetSpec(
        scenario=_K8S_NODE,
        nodes=16,
        mobility="rolling",
        dwell=4.0,
        name="fleet-rolling16",
        description="a 16-node datacenter walk: the attacker poisons one "
        "hypervisor at a time, 4 s each, while poisoned nodes decay by "
        "one idle timeout",
    ),
)
FLEETS.register(
    "fleet-coordinated4",
    FleetSpec(
        scenario=_K8S_NODE,
        nodes=4,
        mobility="coordinated",
        name="fleet-coordinated4",
        description="all four nodes attacked at once (the blast-radius "
        "upper bound; covert bandwidth scales with the fleet)",
    ),
)
FLEETS.register(
    "fleet-staggered8",
    FleetSpec(
        scenario=_K8S_NODE,
        nodes=8,
        mobility="staggered",
        dwell=6.0,
        name="fleet-staggered8",
        description="an 8-node ramp: one more node joins the attack "
        "every 6 s and never leaves",
    ),
)
FLEETS.register(
    "fleet-quarantine8",
    FleetSpec(
        scenario=_K8S_NODE,
        nodes=8,
        mobility="rolling",
        dwell=8.0,
        fleet_defense="quarantine",
        detect_interval=5.0,
        name="fleet-quarantine8",
        description="the rolling walk vs the fleet detector: flagged "
        "nodes are isolated and their victim load migrates over the "
        "fabric onto the healthy remainder",
    ),
)
FLEETS.register(
    "fleet-guarded8",
    FleetSpec(
        scenario=_K8S_NODE.evolve(
            defenses=(DefenseUse("mask-limit"),), name="k8s-mask-limit"
        ),
        nodes=8,
        mobility="rolling",
        dwell=8.0,
        fleet_defense="quarantine",
        name="fleet-guarded8",
        description="defense in depth: per-node mask budgets cap the "
        "damage while the fleet detector reads the guards' distress "
        "counters and quarantines anyway",
    ),
)
FLEETS.register(
    "fleet-spread4",
    FleetSpec(
        scenario=_K8S_NODE.evolve(
            shards=2,
            attacker_strategy="spread",
            name="k8s-spread",
        ),
        nodes=4,
        mobility="rolling",
        dwell=10.0,
        name="fleet-spread4",
        description="the hash-aware spread payload carried by the "
        "rolling walk: every PMD shard of every visited node receives "
        "the full cross-product",
    ),
)
