"""Tests for the cost model and its paper anchors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perf.costmodel import (
    CostModel,
    KERNEL_PROFILE,
    NETDEV_PROFILE,
)
from repro.perf.factory import profile_by_name, switch_for_profile


class TestPaperAnchors:
    """The calibration contract from DESIGN.md §6."""

    def test_512_masks_is_about_10_percent(self):
        # "slowing it down to 10% of the peak performance"
        ratio = CostModel().degradation_ratio(512)
        assert 0.08 <= ratio <= 0.12

    def test_512_masks_is_80_to_90_percent_reduction(self):
        # "reduce its effective peak performance by 80-90%"
        reduction = 1.0 - CostModel().degradation_ratio(512)
        assert 0.80 <= reduction <= 0.92

    def test_8192_masks_is_a_full_dos(self):
        assert CostModel().degradation_ratio(8192) < 0.02

    def test_staged_lookup_helps_but_does_not_stop_the_dos(self):
        # staging cheapens each subtable probe, not the linear scan
        model = CostModel()
        staged = model.degradation_ratio(8192, staged=True)
        assert model.degradation_ratio(8192, staged=False) < staged < 0.05

    def test_8_masks_is_mild(self):
        assert CostModel().degradation_ratio(8) > 0.85

    def test_monotonic_in_masks(self):
        model = CostModel()
        capacities = [model.megaflow_path_capacity_pps(n) for n in (1, 8, 64, 512, 8192)]
        assert capacities == sorted(capacities, reverse=True)


class TestPathCosts:
    def test_cost_ordering(self):
        model = CostModel()
        emc = model.emc_hit_cost()
        mega = model.megaflow_hit_cost(tuples_scanned=1)
        miss = model.miss_cost(mask_count=1)
        assert emc < mega < miss

    def test_linear_in_scan(self):
        model = CostModel()
        base = model.megaflow_hit_cost(0)
        assert model.megaflow_hit_cost(100) == base + 100 * model.cycles_tuple_probe

    def test_staged_probe_cheaper(self):
        model = CostModel()
        assert model.megaflow_hit_cost(100, staged=True) < model.megaflow_hit_cost(100)

    def test_expected_hit_scan(self):
        model = CostModel()
        assert model.expected_hit_scan(0) == 0
        assert model.expected_hit_scan(1) == 1.0
        assert model.expected_hit_scan(8191) == 4096.0

    def test_miss_includes_upcall_and_rules(self):
        model = CostModel()
        cheap = model.miss_cost(0, rules_examined=1)
        costly = model.miss_cost(0, rules_examined=10)
        assert costly - cheap == 9 * model.cycles_slow_rule

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CostModel().capacity_pps(0)

    def test_capacity_with_budget(self):
        model = CostModel()
        full = model.capacity_pps(1000)
        half = model.capacity_pps(1000, available_cycles=model.cpu_hz / 2)
        assert half == pytest.approx(full / 2)
        assert model.capacity_pps(1000, available_cycles=-5) == 0

    def test_scaled_cores(self):
        model = CostModel()
        assert model.scaled(2.0).cpu_hz == 2 * model.cpu_hz

    @given(st.integers(0, 20000))
    def test_capacity_positive(self, masks):
        assert CostModel().megaflow_path_capacity_pps(masks) > 0

    def test_charges_meet_the_closed_form_conditions(self):
        """The default constants are integers and the expected scan depth a
        half-integer, staged included — so a whole Calico campaign's
        charges (150 ticks of 3906 packets against 8193 masks) are sums
        of half-integers under 2**52, and a steady tick's charge is one
        multiply in ``add_repeated``, not ``count`` adds."""
        model = CostModel()
        for staged in (False, True):
            cost = model.expected_megaflow_hit_cost(8193, staged)
            assert (2 * cost).is_integer()
            assert 150 * 3906 * cost < 2 ** 52


class TestProfiles:
    def test_kernel_profile_shape(self):
        # Fig. 3's setting: tiny exact-match front, 10s idle, 200k flows
        assert KERNEL_PROFILE.emc_entries == 256
        assert KERNEL_PROFILE.idle_timeout == 10.0
        assert KERNEL_PROFILE.flow_limit == 200_000

    def test_netdev_profile_shape(self):
        assert NETDEV_PROFILE.emc_entries == 8192
        assert NETDEV_PROFILE.emc_ways == 2

    def test_profile_lookup(self):
        assert profile_by_name("kernel") is KERNEL_PROFILE
        with pytest.raises(KeyError):
            profile_by_name("dpdk-turbo")

    def test_switch_factory_applies_profile(self):
        switch = switch_for_profile("kernel")
        assert switch.microflow.capacity == 256
        assert switch.megaflow.idle_timeout == 10.0
        switch = switch_for_profile(NETDEV_PROFILE, staged_lookup=True)
        assert switch.megaflow.tss.staged
        assert switch.microflow.capacity == 8192
