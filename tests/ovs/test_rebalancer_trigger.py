"""The pmd-auto-lb trigger condition: variance improvement + load floor.

Defaults (both 0) must preserve the pre-trigger behaviour exactly —
every due pass plans, applies, and resets its window — which the
equivalence tests here pin alongside the existing disabled-rebalance
series gates.
"""

import pytest

from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig


def charge_skewed_load(datapath, hot_shard=0, cycles=1e9):
    """Load every bucket a little and the hot shard's buckets a lot."""
    for bucket, shard in enumerate(datapath.reta):
        datapath.record_bucket_cycles(
            bucket, cycles if shard == hot_shard else cycles / 100.0
        )


def build(shards=4, **rebalance_kwargs):
    return DatapathConfig(
        KERNEL_PROFILE, shards=shards, seed=0, rebalance_interval=1.0,
        **rebalance_kwargs
    ).dispatched(OvsSwitch)


class TestPlan:
    def test_plan_does_not_mutate(self):
        datapath = build()
        charge_skewed_load(datapath)
        reta_before = list(datapath.reta)
        cycles_before = list(datapath.bucket_cycles)
        moves, before, after = datapath.rebalancer.plan()
        assert moves, "skewed load should produce moves"
        assert datapath.reta == reta_before
        assert datapath.bucket_cycles == cycles_before
        assert max(after) - min(after) < max(before) - min(before)

    def test_plan_matches_applied_rebalance(self):
        planner = build()
        applier = build()
        charge_skewed_load(planner)
        charge_skewed_load(applier)
        moves, _before, _after = planner.rebalancer.plan()
        moved = applier.rebalancer.rebalance()
        assert moved == len(moves)
        expected = list(planner.reta)
        for bucket, dest in moves:
            expected[bucket] = dest
        assert applier.reta == expected


class TestDefaultsPreserveBehaviour:
    def test_default_trigger_always_applies(self):
        datapath = build()
        charge_skewed_load(datapath)
        moved = datapath.rebalancer.rebalance()
        assert moved > 0
        assert datapath.rebalancer.rebalances == 1
        assert datapath.rebalancer.deferred == 0
        # the window was reset, exactly like the pre-trigger code
        assert datapath.bucket_cycles == [0.0] * datapath.reta_size

    def test_explicit_zeros_equal_defaults(self):
        default = build()
        explicit = build(rebalance_improvement=0.0, rebalance_load_floor=0.0)
        charge_skewed_load(default)
        charge_skewed_load(explicit)
        assert default.rebalancer.rebalance() == explicit.rebalancer.rebalance()
        assert default.reta == explicit.reta

    def test_balanced_window_still_counts_a_pass(self):
        # no load at all: the pre-trigger code ran a pass, moved
        # nothing, and reset the window — defaults must keep doing that
        datapath = build()
        assert datapath.rebalancer.rebalance() == 0
        assert datapath.rebalancer.rebalances == 1
        assert datapath.rebalancer.deferred == 0


class TestLoadFloor:
    def test_idle_node_defers_below_the_floor(self):
        datapath = build(rebalance_load_floor=1e6)
        charge_skewed_load(datapath, cycles=1e3)  # mean stays tiny
        reta_before = list(datapath.reta)
        assert datapath.rebalancer.rebalance() == 0
        assert datapath.rebalancer.deferred == 1
        assert datapath.rebalancer.rebalances == 0
        assert datapath.reta == reta_before
        # the window is KEPT: pressure accumulates toward the floor
        assert sum(datapath.bucket_cycles) > 0

    def test_accumulated_pressure_crosses_the_floor(self):
        datapath = build(rebalance_load_floor=1e6)
        charge_skewed_load(datapath, cycles=1e3)
        assert datapath.rebalancer.rebalance() == 0
        # more ticks of the same load accumulate in the kept window
        for _ in range(100):
            charge_skewed_load(datapath, cycles=1e7)
        assert datapath.rebalancer.rebalance() > 0
        assert datapath.rebalancer.rebalances == 1


class TestImprovementThreshold:
    def test_marginal_improvement_defers(self):
        # a nearly balanced window: the greedy pass would shuffle a
        # bucket or two for a tiny variance win — the threshold blocks it
        datapath = build(rebalance_improvement=0.5)
        for bucket in range(datapath.reta_size):
            datapath.record_bucket_cycles(
                bucket, 1e6 * (1.02 if bucket == 0 else 1.0)
            )
        reta_before = list(datapath.reta)
        assert datapath.rebalancer.rebalance() == 0
        assert datapath.rebalancer.deferred == 1
        assert datapath.reta == reta_before

    def test_large_improvement_applies(self):
        datapath = build(rebalance_improvement=0.5)
        charge_skewed_load(datapath)
        assert datapath.rebalancer.rebalance() > 0
        assert datapath.rebalancer.deferred == 0

    def test_flat_variance_defers_under_threshold(self):
        datapath = build(rebalance_improvement=0.25)
        assert datapath.rebalancer.rebalance() == 0
        assert datapath.rebalancer.deferred == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            build(rebalance_improvement=-0.1)
        with pytest.raises(ValueError):
            build(rebalance_load_floor=-1.0)
