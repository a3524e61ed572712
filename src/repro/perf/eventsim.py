"""The exact-match layer's closed-form model.

The main simulator treats the victim aggregate analytically (DESIGN.md
§6): :func:`analytic_victim_hit_rate` shares the exact-match cache's
slots between the victim's and the attacker's flows.  Its ground truth
is the event-driven micro-simulation in :mod:`repro.testing.eventsim`,
which drives a real :class:`~repro.ovs.microflow.MicroflowCache`;
``tests/perf/test_eventsim.py`` holds the two together.
"""

from __future__ import annotations

#: the victim's hit rate with the whole exact-match cache to itself:
#: a share of its packets open new flows or re-use ones long evicted
MAX_LOCALITY = 0.98


def analytic_victim_hit_rate(
    emc_entries: int,
    victim_flows: int,
    attacker_flows: int,
) -> float:
    """The capacity-competition model used by the main simulator.

    Deliberately simple — slots are shared in proportion to *flow
    counts* — which is conservative when the attacker's packet rate is
    much lower than the victim's (the attacker then holds fewer slots
    than its flow count suggests).  The tests' rate-weighted refinement
    (:func:`repro.testing.eventsim.analytic_victim_hit_rate_weighted`)
    and event-driven ground truth bound it.
    """
    active = victim_flows + attacker_flows
    if active <= 0:
        return MAX_LOCALITY
    return MAX_LOCALITY * min(1.0, emc_entries / active)
