"""``repro.fleet`` — the fleet simulator.

The paper measures one hypervisor; the operational threat is fleet-
wide: a tenant with pods across the datacenter can walk it, poisoning
one node's classifier after another while operators see only aggregate
symptoms.  This package runs N hypervisor nodes — each wrapping a real
:class:`~repro.scenario.datapath.Datapath` backend with its own seeds,
caches and defenses — on the :mod:`repro.topo` fabric, one
deterministic loop over the ticks (control → deliver → step → observe,
wall-clock- and ``random``-free):

* :class:`~repro.fleet.spec.FleetSpec` /
  :class:`~repro.fleet.session.FleetSession` /
  :class:`~repro.fleet.session.FleetResult` — the declarative spec,
  the facade, and the uniform result (per-node + aggregate series,
  migration timeline, fabric counters), mirroring the Scenario API;
* :data:`~repro.fleet.mobility.MOBILITY` — attacker mobility policies
  (``static`` / ``rolling`` / ``staggered`` / ``coordinated``), each
  able to carry the hash-aware ``spread_keys`` per-shard payloads;
* :class:`~repro.fleet.defense.FleetDetector` — fleet-level detection
  aggregating per-node detector/guard observations, with the global
  quarantine action (isolate + migrate victim load over the fabric);
* :data:`~repro.fleet.presets.FLEETS` — named fleet campaigns
  (``repro fleet --list``).

Quick use::

    from repro.fleet import FleetSession
    result = FleetSession("fleet-rolling16").run()
    print(result.render())

A one-node ``static`` fleet is **bit-identical** to the equivalent
:class:`~repro.scenario.session.Session` run — the equivalence gate
``tests/fleet/test_fleet.py`` enforces.
"""

from repro.fleet.defense import FleetDetector, FleetVerdict, NodeObservation
from repro.fleet.mobility import MOBILITY, ScheduledAttacker
from repro.fleet.presets import FLEETS
from repro.fleet.session import (
    FleetNode,
    FleetResult,
    FleetSession,
    MigrationEvent,
)
from repro.fleet.spec import FleetSpec

__all__ = [
    "FLEETS",
    "FleetDetector",
    "FleetNode",
    "FleetResult",
    "FleetSession",
    "FleetSpec",
    "FleetVerdict",
    "MigrationEvent",
    "MOBILITY",
    "NodeObservation",
    "ScheduledAttacker",
]
