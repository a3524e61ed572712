"""Validate the analytic EMC model against the event-driven ground truth."""

import pytest

from repro.perf.eventsim import analytic_victim_hit_rate
from repro.testing.eventsim import (
    analytic_victim_hit_rate_weighted,
    simulate_emc_competition,
)


class TestEventSimBasics:
    def test_cache_big_enough_gives_high_locality(self):
        result = simulate_emc_competition(
            emc_entries=1024, emc_ways=2,
            victim_flows=64, attacker_flows=0,
            victim_pps=2000.0, attacker_pps=0.0,
        )
        assert result.victim_hit_rate > 0.95

    def test_flows_far_beyond_cache_thrash(self):
        result = simulate_emc_competition(
            emc_entries=256, emc_ways=1,
            victim_flows=4096, attacker_flows=0,
            victim_pps=4000.0, attacker_pps=0.0,
        )
        # locality collapses towards entries/flows = 1/16
        assert result.victim_hit_rate < 0.2

    def test_attacker_stream_rarely_hits(self):
        # the covert stream cycles distinct keys; each key's own revisit
        # interval is long, so its EMC entry is usually gone
        result = simulate_emc_competition(
            emc_entries=256, emc_ways=1,
            victim_flows=512, attacker_flows=2048,
            victim_pps=2000.0, attacker_pps=1000.0,
        )
        assert result.attacker_hit_rate < 0.3

    def test_deterministic(self):
        kwargs = dict(
            emc_entries=128, emc_ways=2,
            victim_flows=256, attacker_flows=256,
            victim_pps=1000.0, attacker_pps=500.0,
        )
        a = simulate_emc_competition(**kwargs)
        b = simulate_emc_competition(**kwargs)
        assert (a.victim_hits, a.attacker_hits) == (b.victim_hits, b.attacker_hits)


class TestAnalyticAgreement:
    """The analytic model must land in the same regime as ground truth."""

    @pytest.mark.parametrize(
        "entries,victim_flows,attacker_flows",
        [
            (1024, 64, 0),        # cache ample
            (256, 1024, 0),       # victim self-thrash
            (256, 512, 2048),     # attack thrash (kernel-profile shape)
            (8192, 5000, 8192),   # netdev-profile shape
        ],
    )
    def test_within_tolerance(self, entries, victim_flows, attacker_flows):
        attacker_pps = 1000.0 if attacker_flows else 0.0
        measured = simulate_emc_competition(
            emc_entries=entries, emc_ways=2,
            victim_flows=victim_flows, attacker_flows=attacker_flows,
            victim_pps=4000.0,
            attacker_pps=attacker_pps,
            duration=6.0,
        ).victim_hit_rate
        simple = analytic_victim_hit_rate(entries, victim_flows, attacker_flows)
        weighted = analytic_victim_hit_rate_weighted(
            entries, victim_flows, attacker_flows, 4000.0, attacker_pps
        )
        # the simple model must land in the right regime (it is allowed
        # to be conservative when the attacker's rate is low)...
        assert measured == pytest.approx(simple, abs=0.25)
        # ...and the rate-weighted refinement must be tighter
        assert measured == pytest.approx(weighted, abs=0.15)

    def test_monotone_in_attacker_flows(self):
        rates = [
            simulate_emc_competition(
                emc_entries=512, emc_ways=2,
                victim_flows=512, attacker_flows=n,
                victim_pps=3000.0, attacker_pps=1500.0 if n else 0.0,
            ).victim_hit_rate
            for n in (0, 1024, 4096)
        ]
        assert rates[0] > rates[1] > rates[2]
