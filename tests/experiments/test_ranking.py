"""Tests for the E8 subtable-ranking ablation and its scenario plumbing."""

import pytest

from repro.experiments.ranking import (
    attack_stream,
    benign_stream,
    build_attacked_switch,
    megaflow_keys,
    run_ranking_ablation,
    render,
)
from repro.perf.factory import switch_for_profile
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import DeterministicRng

#: small enough for the tier-1 suite, large enough for ranking to bite
SMALL = dict(n_masks=64, lookups=512, warmup=256, resort_every=32)


@pytest.fixture(scope="module")
def rows():
    return run_ranking_ablation(**SMALL)


class TestRankingAblation:
    def test_ranking_helps_benign_skewed_traffic(self, rows):
        benign = {r.scan_order: r for r in rows if r.traffic == "benign-skewed"}
        assert benign["ranked"].speedup_vs_insertion > 1.5
        assert benign["ranked"].avg_tuples_scanned < benign["insertion"].avg_tuples_scanned

    def test_ranking_does_not_help_the_attack(self, rows):
        """Uniform covert hits leave nothing to rank: ranked never beats
        insertion order (it can even do *worse* — the round-robin stream
        anti-correlates with the re-sort, visiting exactly the subtables
        a re-sort just demoted), and both orders scan on the order of
        the uniform expectation (n+1)/2."""
        attack = {r.scan_order: r for r in rows if r.traffic == "attack"}
        assert attack["ranked"].speedup_vs_insertion < 1.15
        expected = (SMALL["n_masks"] + 1) / 2
        assert attack["insertion"].avg_tuples_scanned >= 0.75 * expected
        assert attack["ranked"].avg_tuples_scanned >= 0.75 * expected

    def test_render_summarises_both_sides(self, rows):
        text = render(rows)
        assert "benign-skewed" in text
        assert "ranking helps benign" in text

    def test_streams_hit_the_installed_megaflows(self):
        switch = build_attacked_switch(16, scan_order="insertion")
        keys = megaflow_keys(switch)
        assert len(keys) == 16
        for key in attack_stream(keys, 32):
            assert switch.megaflow.tss.lookup(key).hit
        for key in benign_stream(keys, 32, DeterministicRng(1)):
            assert switch.megaflow.tss.lookup(key).hit


class TestRankedScenarioPlumbing:
    def test_ranked_campaign_runs_end_to_end(self):
        spec = ScenarioSpec(
            surface="prefix8",
            name="ranked-smoke",
            scan_order="ranked",
            duration=12.0,
            attack_start=4.0,
        )
        result = Session(spec).run()
        assert result.datapath.scan_order == "ranked"
        assert result.final_mask_count() > 0
        # the revalidator re-ranked the pvector during the run
        assert result.datapath.megaflow.tss.resorts > 0

    def test_profile_default_scan_order_applies(self):
        spec = ScenarioSpec(surface="fig2", profile="netdev-ranked")
        session = Session(spec)
        datapath = session.build_datapath()
        assert datapath.scan_order == "ranked"

    def test_spec_round_trips_scan_order(self):
        spec = ScenarioSpec(surface="calico", scan_order="ranked")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"surface": "calico", "scan_order": "ranked"}

    def test_keys_are_packed_and_nothing_else(self):
        with pytest.raises(ValueError, match="keys are packed"):
            ScenarioSpec(surface="calico", key_mode="tuple")
        with pytest.raises(ValueError, match="keys are packed"):
            switch_for_profile("kernel", key_mode="tuple")
