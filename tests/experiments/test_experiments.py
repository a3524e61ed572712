"""Tests for the experiment harness — the paper-facing checks.

These are the reproduction's acceptance tests: every table/figure must
come out with the paper's numbers (exact for mask counts, shape-level
for performance).
"""

import time

import pytest

from repro.experiments.degradation import render as render_degradation
from repro.experiments.degradation import run_degradation_sweep
from repro.experiments.fig2 import FIG2B_EXPECTED, fig2_packet_sequence, run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.masks import render as render_masks
from repro.experiments.masks import run_mask_counts
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int
from repro.scenario import Session
from repro.scenario.spec import ScenarioSpec


class TestFig2:
    def test_bit_exact_match(self):
        result = run_fig2()
        assert result.exact_match
        assert result.rows[0] == ("00001010", "11111111", "allow")

    def test_eight_deny_masks(self):
        assert run_fig2().deny_mask_count == 8

    def test_packet_sequence_is_minimal(self):
        # one allow packet + exactly one covert packet per deny mask
        assert len(fig2_packet_sequence()) == 9

    def test_render_mentions_verdict(self):
        text = run_fig2().render()
        assert "MATCHES Fig. 2b exactly" in text
        for key, mask, action in FIG2B_EXPECTED:
            assert key in text and mask in text


class TestMaskCounts:
    @pytest.fixture(scope="class")
    def results(self):
        return run_mask_counts()

    def test_all_scenarios_match_paper(self, results):
        assert all(r.matches_paper for r in results)

    def test_paper_numbers(self, results):
        by_cms = {(r.cms, r.scenario): r for r in results}
        assert by_cms[("kubernetes", "/8 allow (warm-up)")].measured_masks == 8
        assert by_cms[("kubernetes", "ip_src + tp_dst")].measured_masks == 512
        assert by_cms[("openstack", "ip_src + tp_dst")].measured_masks == 512
        assert by_cms[("calico", "ip_src + tp_dst + tp_src")].measured_masks == 8192

    def test_render(self, results):
        text = render_masks(results)
        assert "8192" in text and "512" in text


class TestLinearScan:
    """E6: "even if hash lookup is O(1), the TSS algorithm still has to
    iterate through all hashes assigned to different masks, rendering
    TSS a costly linear search when there are lots of masks"."""

    PAPER_MASKS = {"prefix8": 8, "k8s": 512, "calico": 8192}
    #: matches no megaflow of any surface: its destination is not the
    #: attacker pod every covert megaflow matches on
    MISS = FlowKey(OVS_FIELDS, {
        "eth_type": 0x0800, "ip_src": ip_to_int("10.1.2.3"),
        "ip_dst": ip_to_int("10.0.9.99"), "ip_proto": 6,
        "tp_src": 7777, "tp_dst": 7777,
    })

    @pytest.fixture(scope="class")
    def tss(self):
        return {
            (name, staged): Session(
                ScenarioSpec(surface=name, staged_lookup=staged)
            ).measure().datapath.megaflow.tss
            for name in self.PAPER_MASKS
            for staged in (False, True)
        }

    @pytest.mark.parametrize("staged", [False, True], ids=["plain", "staged"])
    def test_a_miss_scans_every_subtable(self, tss, staged):
        # staging cheapens each probe, never the number of subtables
        for name, masks in self.PAPER_MASKS.items():
            result = tss[name, staged].lookup(self.MISS)
            assert not result.hit
            assert result.tuples_scanned == masks

    def test_the_scan_costs_wall_clock_in_the_mask_count(self, tss):
        # 16x the masks must cost more than 4x the wall time: a quarter
        # of linear, far above constant or logarithmic growth
        def per_lookup(name: str, repeats: int) -> float:
            search = tss[name, False]
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(repeats):
                    search.lookup(self.MISS)
                best = min(best, (time.perf_counter() - start) / repeats)
            return best

        assert per_lookup("calico", 8) > 4.0 * per_lookup("k8s", 128)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        # a shortened but shape-preserving run (attack at 20s of 60s)
        return run_fig3(duration=60.0, attack_start=20.0)

    def test_shape_holds(self, result):
        assert result.shape_holds()

    def test_pre_attack_plateau(self, result):
        assert result.scenario.simulation.pre_attack_mean_bps() == pytest.approx(1e9, rel=0.05)

    def test_post_attack_collapse(self, result):
        sim = result.scenario.simulation
        assert sim.post_attack_mean_bps() < 0.05 * sim.pre_attack_mean_bps()

    def test_mask_cliff_at_attack_start(self, result):
        series = result.scenario.simulation.series
        masks = dict(zip(series.column("t"), series.column("masks")))
        assert masks[19.0] <= 6
        assert masks[30.0] >= 8192

    def test_covert_stream_is_low_bandwidth(self, result):
        # the attack input is 2 Mbps; the damage is ~1 Gbps
        attacker = result.scenario.simulation.attacker
        assert attacker.rate_bps <= 2e6

    def test_render_contains_panels(self, result):
        text = result.render()
        assert "victim throughput" in text
        assert "# megaflow masks" in text
        assert "shape HOLDS" in text


class TestDegradationSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_degradation_sweep(duration=60.0, attack_start=15.0)

    def test_headline_80_to_90_percent(self, rows):
        k8s = next(r for r in rows if r.cms == "kubernetes" and "tp_dst" in r.surface)
        assert 0.80 <= 1.0 - k8s.capacity_ratio <= 0.92

    def test_openstack_matches_kubernetes(self, rows):
        # the same two-field ACL, so the same 512 masks and capacity
        k8s = next(r for r in rows if r.cms == "kubernetes" and "tp_dst" in r.surface)
        openstack = next(r for r in rows if r.cms == "openstack")
        assert openstack.capacity_ratio == pytest.approx(k8s.capacity_ratio, abs=1e-9)

    def test_calico_is_full_dos(self, rows):
        calico = next(r for r in rows if r.cms == "calico")
        assert calico.capacity_ratio < 0.02
        assert calico.victim_ratio < 0.05

    def test_warmup_is_mild(self, rows):
        warmup = next(r for r in rows if "warm-up" in r.surface)
        assert warmup.capacity_ratio > 0.85
        assert warmup.victim_ratio > 0.95

    def test_mask_counts_in_sweep(self, rows):
        assert [r.masks for r in rows] == [
            pytest.approx(8, abs=2),
            pytest.approx(513, abs=3),
            pytest.approx(513, abs=3),
            pytest.approx(8193, abs=3),
        ]

    def test_render(self, rows):
        text = render_degradation(rows)
        assert "of peak" in text


class TestCovertRateFloor:
    """How little covert bandwidth the attack needs: the floor is
    masks / idle timeout refreshes per second (~0.42 Mbps at 64 B for
    8192 masks).  Below it the revalidator reclaims most masks; above
    it the DoS saturates."""

    RATES_BPS = (0.1e6, 0.3e6, 0.5e6, 1e6, 2e6)

    @pytest.fixture(scope="class")
    def outcomes(self):
        outcomes = {}
        for rate in self.RATES_BPS:
            result = Session(ScenarioSpec(
                surface="calico", profile="kernel", covert_rate_bps=rate,
                attack_start=15.0, duration=75.0,
            )).run()
            outcomes[rate] = (result.final_mask_count(), result.degradation())
        return outcomes

    def test_below_the_floor_the_revalidator_wins(self, outcomes):
        masks, _ = outcomes[0.1e6]
        assert masks < 8192 / 2

    def test_the_papers_rates_are_a_full_dos(self, outcomes):
        masks, ratio = outcomes[1e6]
        assert masks >= 8192
        assert ratio < 0.05
        assert outcomes[2e6][1] < 0.05


class TestVictimDiversity:
    """Who gets hurt: a single fat flow stays microflow-cached, a
    connection-rich service (heavy-tailed flow popularity) is exposed
    to the full scan.  The covert rate sits just above the 8192-mask
    refresh floor, so the attacker's own scans do not burn the shared
    core and mask the cache-shielding effect."""

    FLOW_COUNTS = (1, 64, 1024, 5000, 20000)

    @pytest.fixture(scope="class")
    def ratios(self):
        return {
            flows: Session(ScenarioSpec(
                surface="calico", profile="netdev", covert_rate_bps=0.6e6,
                attack_start=15.0, duration=60.0,
                victim_concurrent_flows=flows,
                victim_new_flows_per_sec=min(500.0, 2.0 * flows),
            )).run().degradation()
            for flows in self.FLOW_COUNTS
        }

    def test_a_single_flow_hides_behind_the_emc(self, ratios):
        assert ratios[1] > 0.9

    def test_a_connection_rich_victim_collapses(self, ratios):
        assert ratios[20000] < 0.1

    def test_damage_is_monotone_in_diversity(self, ratios):
        ordered = [ratios[flows] for flows in self.FLOW_COUNTS]
        assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))
