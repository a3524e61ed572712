"""The RETA indirection table and the PMD rebalancer: identity-table
equivalence with plain RSS modulo dispatch, per-bucket load accounting,
greedy hottest→coolest remapping, the ``tss_lookups`` datapath-surface
counter, and the spread-variant mask-invariance property."""

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.ovs.pmd import (
    DEFAULT_RETA_SIZE,
    PmdRebalancer,
    ShardedDatapath,
    effective_reta_size,
)
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.defense.cacheless import CachelessDatapath
from repro.util.bits import rss_hash


def _keys(count=64):
    return [
        FlowKey(
            OVS_FIELDS,
            {"eth_type": ETHERTYPE_IPV4, "ip_src": 0x0A000000 + i * 7,
             "ip_dst": 0x0A020000 + (i * 3) % 251, "ip_proto": PROTO_TCP,
             "tp_src": 1024 + i * 13, "tp_dst": (i * 31) % 65536},
        )
        for i in range(count)
    ]


def _attack_setup():
    policy, dimensions = kubernetes_attack_policy()
    target = PolicyTarget(
        pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
    )
    rules = KubernetesCms().compile(policy, target, OVS_FIELDS)
    return rules, dimensions, target


class TestRetaTable:
    def test_effective_size_rounds_up_to_a_shard_multiple(self):
        assert effective_reta_size(128, 4) == 128
        assert effective_reta_size(128, 3) == 129
        assert effective_reta_size(128, 7) == 133
        assert effective_reta_size(2, 8) == 8
        with pytest.raises(ValueError):
            effective_reta_size(0, 4)

    def test_identity_table_dispatches_like_plain_modulo(self):
        """The hard equivalence contract: with the initial RETA,
        dispatch must equal the pre-RETA ``rss_hash % shards`` for
        every shard count — including ones that don't divide 128."""
        for shards in (1, 2, 3, 4, 5, 8):
            datapath = DatapathConfig(
                KERNEL_PROFILE, shards=shards, seed=0
            ).dispatched(OvsSwitch)
            assert datapath.reta == [
                b % shards for b in range(datapath.reta_size)
            ]
            for key in _keys(96):
                direct = rss_hash(key.packed & OVS_FIELDS.rss_mask) % shards
                assert datapath.shard_of(key) == direct

    def test_bucket_is_stable_shard_follows_the_table(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        key = _keys(1)[0]
        bucket = key.rss % datapath.reta_size
        assert datapath.shard_of(key) == datapath.reta[bucket]
        datapath.reta[bucket] = (datapath.reta[bucket] + 1) % 4
        # the hash never moves: the key carries it, the table does not
        assert key.rss == rss_hash(key.packed & OVS_FIELDS.rss_mask)
        assert datapath.shard_of(key) == datapath.reta[bucket]

    def test_default_reta_size(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        assert datapath.reta_size == DEFAULT_RETA_SIZE

    def test_rejects_negative_rebalance_interval(self):
        with pytest.raises(ValueError):
            ShardedDatapath(
                OVS_FIELDS,
                lambda i: switch_for_profile("kernel", seed=i),
                shards=2,
                rebalance_interval=-1.0,
            )


class TestBucketAccounting:
    def test_dispatch_accumulates_per_bucket_load(self):
        rules, dimensions, target = _attack_setup()
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        keys = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()[:64]
        datapath.process_batch(keys, now=0.0)
        assert sum(datapath.bucket_packets) == len(keys)
        # scan depth lands on the same buckets the packets hashed to
        stats = datapath.stats
        assert sum(datapath.bucket_tuples) == stats.tuples_scanned
        # shard_loads sums buckets onto the current table
        loads = datapath.rebalancer.bucket_loads()
        per_shard = datapath.rebalancer.shard_loads()
        assert sum(per_shard) == pytest.approx(sum(loads))

    def test_external_cycles_feed_the_window(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=2, seed=0
        ).dispatched(OvsSwitch)
        datapath.record_bucket_cycles(3, 1000.0)
        assert datapath.bucket_cycles[3] == 1000.0
        assert datapath.rebalancer.bucket_loads()[3] == pytest.approx(1000.0)

    def test_one_shard_fast_path_skips_accounting(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=1, seed=0
        ).dispatched(OvsSwitch)
        rules, dimensions, target = _attack_setup()
        datapath.add_rules(rules)
        keys = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()[:8]
        datapath.process_batch(keys, now=0.0)
        assert sum(datapath.bucket_packets) == 0  # nothing to rebalance


class TestPmdRebalancer:
    def _datapath(self, shards=4, interval=1.0):
        return DatapathConfig(
            KERNEL_PROFILE, shards=shards, seed=0, rebalance_interval=interval
        ).dispatched(OvsSwitch)

    def test_disabled_by_interval_zero_and_by_one_shard(self):
        assert not self._datapath(interval=0.0).rebalancer.enabled
        assert not self._datapath(shards=1, interval=5.0).rebalancer.enabled
        assert self._datapath(shards=2, interval=5.0).rebalancer.enabled

    def test_disabled_rebalancer_never_touches_the_table(self):
        datapath = self._datapath(interval=0.0)
        identity = list(datapath.reta)
        datapath.record_bucket_cycles(0, 1e12)
        datapath.advance_clock(1000.0)
        assert datapath.reta == identity
        assert datapath.rebalancer.rebalances == 0

    def test_greedy_pass_moves_hottest_to_coolest(self):
        datapath = self._datapath(shards=4)
        # all load on shard 0's buckets: 0, 4, 8, ... (identity table)
        for bucket in range(0, datapath.reta_size, 4):
            datapath.record_bucket_cycles(bucket, 1000.0)
        moved = datapath.rebalancer.rebalance()
        assert moved > 0
        per_shard = [0.0] * 4
        for bucket in range(0, datapath.reta_size, 4):
            per_shard[datapath.reta[bucket]] += 1000.0
        # the hot shard ends within the tolerance of the (new) mean
        total = sum(per_shard)
        assert max(per_shard) <= 1.05 * total / 4 + 1000.0

    def test_rebalance_resets_the_window(self):
        datapath = self._datapath()
        datapath.record_bucket_cycles(0, 500.0)
        datapath.rebalancer.rebalance()
        assert sum(datapath.bucket_cycles) == 0.0
        assert sum(datapath.bucket_packets) == 0

    def test_balanced_load_is_left_alone(self):
        datapath = self._datapath(shards=4)
        for bucket in range(datapath.reta_size):
            datapath.record_bucket_cycles(bucket, 10.0)
        identity = list(datapath.reta)
        assert datapath.rebalancer.rebalance() == 0
        assert datapath.reta == identity

    def test_per_key_process_drives_the_rebalancer(self):
        """``process`` is a one-key burst, so it checks the auto-lb
        grid after dispatch like any burst does: a pass falls due at
        the first packet on or past each grid point, and the window it
        resets holds the packets since the last pass."""
        rules, dimensions, target = _attack_setup()
        datapath = self._datapath(shards=2, interval=1.0)
        datapath.add_rules(rules)
        keys = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()
        for tick, key in enumerate(keys[:10]):
            datapath.process(key, now=tick * 0.25)
        rebalancer = datapath.rebalancer
        assert rebalancer.rebalances == 2  # at 1.0 and 2.0
        assert rebalancer.last_rebalance == 2.0
        assert sum(datapath.bucket_packets) == 1  # the packet at 2.25

    def test_every_pass_is_traced(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        datapath = self._datapath(shards=2)
        telemetry.attach(datapath, node="n0")
        for bucket in range(0, datapath.reta_size, 2):
            datapath.record_bucket_cycles(bucket, 100.0)
        moved = datapath.rebalancer.rebalance()
        assert datapath.rebalancer.rebalance() == 0  # a fresh, idle window
        passes = [event.args for event in telemetry.trace.events()
                  if event.name == "ovs.pmd.rebalance"]
        assert [(p["passes"], p["buckets_moved"]) for p in passes] == [
            (1, moved), (2, 0),
        ]
        assert moved > 0

    def test_maybe_rebalance_follows_the_interval_grid(self):
        datapath = self._datapath(interval=2.0)
        rebalancer = datapath.rebalancer
        datapath.record_bucket_cycles(0, 1000.0)
        rebalancer.maybe_rebalance(1.0)
        assert rebalancer.rebalances == 0
        rebalancer.maybe_rebalance(2.7)  # off-grid check
        assert rebalancer.rebalances == 1
        assert rebalancer.last_rebalance == 2.0  # grid-aligned
        rebalancer.maybe_rebalance(3.9)
        assert rebalancer.rebalances == 1
        rebalancer.maybe_rebalance(4.0)
        assert rebalancer.rebalances == 2

    def test_advance_clock_drives_rebalances(self):
        datapath = self._datapath(shards=2, interval=1.0)
        for bucket in range(0, datapath.reta_size, 2):
            datapath.record_bucket_cycles(bucket, 100.0)
        datapath.advance_clock(1.0)
        assert datapath.rebalancer.rebalances == 1
        assert datapath.rebalancer.buckets_moved > 0


class TestPlan:
    """``plan`` is the rebalance pass without its side effects, and a
    pass applies exactly its plan: no trigger stands between them."""

    @staticmethod
    def _loaded(shape="skewed", shards=4):
        """A rebalancing datapath with one load window: ``skewed`` puts
        a lot on shard 0's buckets and a little elsewhere, ``mild``
        puts shard 0 just past ``min_imbalance``, ``idle`` nothing."""
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=shards, seed=0, rebalance_interval=1.0
        ).dispatched(OvsSwitch)
        hot, cool = {"skewed": (1e9, 1e7), "mild": (1.1e6, 1e6),
                     "idle": (0.0, 0.0)}[shape]
        for bucket, shard in enumerate(datapath.reta):
            datapath.record_bucket_cycles(bucket, hot if shard == 0 else cool)
        return datapath

    def test_plan_does_not_mutate(self):
        datapath = self._loaded()
        reta_before = list(datapath.reta)
        cycles_before = list(datapath.bucket_cycles)
        moves, before, after = datapath.rebalancer.plan()
        assert moves, "skewed load should produce moves"
        assert datapath.reta == reta_before
        assert datapath.bucket_cycles == cycles_before
        assert max(after) - min(after) < max(before) - min(before)

    @pytest.mark.parametrize("shape", ["skewed", "mild", "idle"])
    def test_plan_matches_applied_rebalance(self, shape):
        planner = self._loaded(shape)
        applier = self._loaded(shape)
        moves, _before, _after = planner.rebalancer.plan()
        assert bool(moves) == (shape != "idle")
        moved = applier.rebalancer.rebalance()
        assert moved == len(moves)
        expected = list(planner.reta)
        for bucket, dest in moves:
            expected[bucket] = dest
        assert applier.reta == expected
        assert applier.rebalancer.rebalances == 1
        assert applier.rebalancer.buckets_moved == moved
        assert applier.bucket_cycles == [0.0] * applier.reta_size


class TestTssLookupsSurface:
    """The duck-typing satellite: scan-depth weighting reads the
    ``tss_lookups`` protocol counter, never ``megaflow.tss`` internals."""

    def test_ovs_switch_exposes_tss_lookups(self):
        rules, dimensions, target = _attack_setup()
        switch = switch_for_profile("kernel", seed=0)
        switch.add_rules(rules)
        keys = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()[:16]
        switch.process_batch(keys, now=0.0)
        assert switch.tss_lookups == switch.megaflow.tss.total_lookups
        assert switch.tss_lookups > 0

    def test_sharded_sums_shard_counters(self):
        rules, dimensions, target = _attack_setup()
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        keys = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()[:32]
        datapath.process_batch(keys, now=0.0)
        assert datapath.tss_lookups == sum(
            shard.tss_lookups for shard in datapath.shards
        )

    def test_cacheless_counts_classifications(self):
        from repro.flow.actions import Drop
        from repro.flow.match import FlowMatch
        from repro.flow.rule import FlowRule

        datapath = CachelessDatapath(OVS_FIELDS)
        datapath.add_rules(
            [FlowRule(FlowMatch.wildcard(OVS_FIELDS), Drop(), priority=0)]
        )
        datapath.process_batch(_keys(5), now=0.0)
        assert datapath.tss_lookups == 5

    def test_expected_scan_depth_accepts_duck_typed_shards(self):
        """A shard that is not an OvsSwitch — only the protocol surface
        — must be enough for the lookup-weighted depth (the original
        code reached through ``shard.megaflow.tss.total_lookups``)."""

        class FakeShard:
            def __init__(self, depth, lookups):
                self._depth = depth
                self.tss_lookups = lookups

            def expected_scan_depth(self):
                return self._depth

        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=2, seed=0
        ).dispatched(OvsSwitch)
        datapath.shards = [FakeShard(2.0, 1), FakeShard(6.0, 3)]
        assert datapath.expected_scan_depth() == pytest.approx(
            (2.0 * 1 + 6.0 * 3) / 4
        )


class TestSpreadMaskInvariance:
    """Equivalence-matrix satellite: every spread variant must install
    the *same* megaflow mask as its base key (it only varies bits the
    megaflow wildcards)."""

    def _mask_set(self, datapath):
        masks = set()
        for shard in datapath.shards:
            for entry in shard.megaflow.entries():
                masks.add(tuple(entry.match.masks))
        return masks

    def test_spread_variants_install_the_base_mask_set(self):
        rules, dimensions, target = _attack_setup()
        generator = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip)

        naive = DatapathConfig(
            KERNEL_PROFILE, shards=1, seed=0
        ).dispatched(OvsSwitch)
        naive.add_rules(rules)
        for key in generator.keys():
            naive.handle_miss(key, now=0.0)

        spread = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        spread.add_rules(rules)
        for key in generator.spread_keys(4, spread.shard_of):
            spread.handle_miss(key, now=0.0)

        base_masks = self._mask_set(naive)
        spread_masks = self._mask_set(spread)
        assert spread_masks == base_masks
        assert len(base_masks) == 512

    def test_every_shard_carries_a_subset_of_the_base_masks(self):
        rules, dimensions, target = _attack_setup()
        generator = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip)
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=2, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        for key in generator.spread_keys(2, datapath.shard_of):
            datapath.handle_miss(key, now=0.0)
        base = self._mask_set(datapath)
        for shard in datapath.shards:
            shard_masks = {
                tuple(e.match.masks) for e in shard.megaflow.entries()
            }
            assert shard_masks <= base
