"""The exact-match layer's ground truth: an event-driven
micro-simulation the closed-form capacity-competition model
(:func:`repro.perf.eventsim.analytic_victim_hit_rate`) is held to.

The main simulator treats the victim aggregate analytically (DESIGN.md
§6); :func:`simulate_emc_competition` drives a **real**
:class:`~repro.ovs.microflow.MicroflowCache` with interleaved victim
and attacker arrivals and measures the victim's actual hit rate, and
:func:`analytic_victim_hit_rate_weighted` is the rate-weighted
refinement of the closed form the tests bound beside it.

The arrival interleave runs on the same heap-based
:class:`~repro.util.eventloop.EventLoop` core the fleet simulator uses:
each traffic class is one self-rescheduling arrival event, with the
class index as the event *phase* so simultaneous arrivals keep the
victim-before-attacker tie-break.

It is deliberately small-scale (tens of thousands of events) — enough
to check the capacity-competition model's saturation behaviour without
burning minutes of CPU.  ``tests/perf/test_eventsim.py`` asserts
agreement within a generous tolerance; the point is the *regime*
(cache big enough ⇒ high locality; flows ≫ entries ⇒ locality ≈
entries/flows), not the third decimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.actions import Allow
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.perf.eventsim import MAX_LOCALITY
from repro.util.eventloop import EventLoop
from repro.util.rng import DeterministicRng


@dataclass
class EmcSimResult:
    """Measured hit rates from one event-driven run."""

    victim_lookups: int
    victim_hits: int
    attacker_lookups: int
    attacker_hits: int

    @property
    def victim_hit_rate(self) -> float:
        return self.victim_hits / self.victim_lookups if self.victim_lookups else 0.0

    @property
    def attacker_hit_rate(self) -> float:
        return (
            self.attacker_hits / self.attacker_lookups if self.attacker_lookups else 0.0
        )


def simulate_emc_competition(
    emc_entries: int,
    emc_ways: int,
    victim_flows: int,
    attacker_flows: int,
    victim_pps: float,
    attacker_pps: float,
    duration: float = 5.0,
    seed: int = 11,
    space: FieldSpace = OVS_FIELDS,
) -> EmcSimResult:
    """Interleave victim and attacker packet arrivals through a real
    microflow cache and measure per-class hit rates.

    Victim packets pick one of ``victim_flows`` keys uniformly (a
    round-robin-ish server mix); attacker packets cycle the
    ``attacker_flows`` covert keys in order, exactly like the covert
    stream does.
    """
    rng = DeterministicRng(seed)
    cache = MicroflowCache(entries=emc_entries, ways=emc_ways, rng=rng.fork("emc"))
    entry = MegaflowEntry(match=FlowMatch.wildcard(space), action=Allow())

    victim_keys = [
        FlowKey(space, {"ip_src": 0x0A000000 + i, "tp_src": 33000 + (i % 1000)})
        for i in range(victim_flows)
    ]
    attacker_keys = [
        FlowKey(space, {"ip_src": 0x2C000000 + i, "tp_dst": i & 0xFFFF})
        for i in range(attacker_flows)
    ]

    result = EmcSimResult(0, 0, 0, 0)
    # interleave the two Poisson-ish processes through the shared
    # event-loop core: each class is one self-rescheduling arrival
    # event; the class index doubles as the event *phase*, so a
    # simultaneous victim/attacker arrival keeps the historical
    # victim-first tie-break.  Arrivals scheduled past ``duration``
    # simply never run (``run(until=duration)``)
    loop = EventLoop()
    attacker_state = {"cursor": 0}

    def victim_arrival() -> None:
        now = loop.now
        key = rng.choice(victim_keys)
        result.victim_lookups += 1
        if cache.lookup(key, now) is not None:
            result.victim_hits += 1
        else:
            cache.insert(key, entry, now)
        loop.schedule(now + rng.expovariate(victim_pps), victim_arrival, phase=0)

    def attacker_arrival() -> None:
        now = loop.now
        key = attacker_keys[attacker_state["cursor"] % len(attacker_keys)]
        attacker_state["cursor"] += 1
        result.attacker_lookups += 1
        if cache.lookup(key, now) is not None:
            result.attacker_hits += 1
        else:
            cache.insert(key, entry, now)
        loop.schedule(now + rng.expovariate(attacker_pps), attacker_arrival,
                      phase=1)

    if victim_pps > 0:
        loop.schedule(rng.expovariate(victim_pps), victim_arrival, phase=0)
    if attacker_pps > 0:
        loop.schedule(rng.expovariate(attacker_pps), attacker_arrival, phase=1)
    loop.run(until=duration)
    return result


def analytic_victim_hit_rate_weighted(
    emc_entries: int,
    victim_flows: int,
    attacker_flows: int,
    victim_pps: float,
    attacker_pps: float,
    max_locality: float = MAX_LOCALITY,
    iterations: int = 64,
) -> float:
    """Rate-weighted refinement: cache slots are held in proportion to
    *insertion* rates, and a class's insertion rate is its packet rate
    times its miss rate.  Solved by damped fixed-point iteration::

        I_v = victim_pps · (1 − h)
        R_v = entries · I_v / (I_v + attacker_insertions)
        h   = max_locality · min(1, R_v / victim_flows)

    The attacker's covert stream cycles distinct keys, so effectively
    every attacker packet is an insertion.
    """
    if victim_flows <= 0 or victim_pps <= 0:
        return max_locality
    if attacker_flows <= 0:
        attacker_pps = 0.0
    h = 0.5
    for _ in range(iterations):
        victim_insertions = victim_pps * (1.0 - h)
        total = victim_insertions + attacker_pps
        resident = emc_entries * (victim_insertions / total) if total > 0 else emc_entries
        target = max_locality * min(1.0, resident / victim_flows)
        h = 0.5 * h + 0.5 * target  # damping avoids oscillation
    return h
