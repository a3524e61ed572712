"""The sharded multi-PMD datapath: shards=1 equivalence with the bare
switch, RSS dispatch determinism, per-shard seed derivation, broadcast
rule management and aggregated observables."""

import dataclasses

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
from repro.ovs.pmd import RSS_FIELDS, ShardedDatapath, rss_hash, shard_seed
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.vec import HAVE_NUMPY

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch

#: the engine classes the ``ovs`` backend can run, by class
ENGINES = (OvsSwitch, VecSwitch) if HAVE_NUMPY else (OvsSwitch,)


def _rules_and_keys(count=96):
    policy, dimensions = kubernetes_attack_policy()
    target = PolicyTarget(
        pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
    )
    rules = KubernetesCms().compile(policy, target, OVS_FIELDS)
    covert = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()[:count]
    stream = []
    for i, key in enumerate(covert):
        stream.append(key)
        if i % 5 == 0:
            stream.append(covert[i // 2])  # repeats: cache-hit traffic
    return rules, stream


def _result_fields(result):
    return (
        result.action,
        result.path,
        result.tuples_scanned,
        result.hash_probes,
        result.install_skipped,
    )


class TestOneShardEquivalence:
    """ShardedDatapath(shards=1) must be observationally identical to a
    bare OvsSwitch built with the same profile and seed."""

    def test_identical_results_stats_and_caches(self):
        rules, stream = _rules_and_keys()
        plain = switch_for_profile("kernel", seed=3)
        sharded = DatapathConfig(
            KERNEL_PROFILE, shards=1, seed=3
        ).dispatched(OvsSwitch)
        plain.add_rules(rules)
        sharded.add_rules(rules)

        plain_results = [plain.process(key, now=1.0) for key in stream]
        sharded_results = [sharded.process(key, now=1.0) for key in stream]

        assert [_result_fields(r) for r in plain_results] == [
            _result_fields(r) for r in sharded_results
        ]
        assert dataclasses.asdict(plain.stats) == dataclasses.asdict(sharded.stats)
        assert plain.mask_count == sharded.mask_count
        assert plain.megaflow_count == sharded.megaflow_count
        assert plain.expected_scan_depth() == sharded.expected_scan_depth()

    def test_one_shard_batch_delegates(self):
        rules, stream = _rules_and_keys(48)
        plain = switch_for_profile("kernel", seed=3)
        sharded = DatapathConfig(
            KERNEL_PROFILE, shards=1, seed=3
        ).dispatched(OvsSwitch)
        plain.add_rules(rules)
        sharded.add_rules(rules)
        a = plain.process_batch(stream, now=0.5)
        b = sharded.process_batch(stream, now=0.5)
        assert [_result_fields(r) for r in a] == [_result_fields(r) for r in b]
        assert dataclasses.asdict(plain.stats) == dataclasses.asdict(sharded.stats)
        assert plain.mask_count == sharded.mask_count
        assert plain.megaflow_count == sharded.megaflow_count

    def test_shard_zero_keeps_base_seed(self):
        assert shard_seed(7, 0) == 7
        assert shard_seed(7, 1) != 7
        assert shard_seed(7, 1) != shard_seed(7, 2)

    def test_observables_mirror_single_switch(self):
        sharded = DatapathConfig(
            KERNEL_PROFILE, shards=1, seed=0
        ).dispatched(OvsSwitch)
        plain = switch_for_profile("kernel", seed=0)
        assert sharded.cache_capacity == plain.cache_capacity
        assert sharded.idle_timeout == plain.idle_timeout
        assert sharded.scan_order == plain.scan_order
        assert sharded.staged == plain.staged


class TestShardedDispatch:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_batch_matches_sequential_process(self, engine):
        """process_batch across shards — scalar or columnar ones — must
        return bit-identical results to per-key process calls on the
        scalar shards (shards share no state)."""
        rules, stream = _rules_and_keys()
        a = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=3
        ).dispatched(OvsSwitch)
        b = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=3
        ).dispatched(engine)
        a.add_rules(rules)
        b.add_rules(rules)
        sequential = [a.process(key, now=1.0) for key in stream]
        batch = b.process_batch(stream, now=1.0)
        assert [_result_fields(r) for r in sequential] == [
            _result_fields(r) for r in batch.results
        ]
        assert a.shard_mask_counts == b.shard_mask_counts
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_per_key_process_fills_the_burst_bucket_window(self, shards):
        """``process`` is the one-key burst: a stream sent key by key
        leaves the per-bucket load window a single burst of it leaves."""
        rules, stream = _rules_and_keys()
        per_key, burst = (
            DatapathConfig(
                KERNEL_PROFILE, shards=shards, seed=3
            ).dispatched(OvsSwitch)
            for _ in range(2)
        )
        per_key.add_rules(rules)
        burst.add_rules(rules)
        for key in stream:
            per_key.process(key, now=0.5)
        burst.process_batch(stream, now=0.5)
        assert sum(per_key.bucket_packets) == len(stream)
        assert per_key.bucket_packets == burst.bucket_packets
        assert per_key.bucket_tuples == burst.bucket_tuples
        assert dataclasses.asdict(per_key.stats) == \
            dataclasses.asdict(burst.stats)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_a_packet_is_steered_like_its_key(self, shards):
        from repro.flow.extract import flow_key_from_packet
        from repro.net.ethernet import Ethernet
        from repro.net.ipv4 import IPv4
        from repro.net.l4 import Tcp

        rules, _stream = _rules_and_keys()
        by_packet, by_key = (
            DatapathConfig(
                KERNEL_PROFILE, shards=shards, seed=3
            ).dispatched(OvsSwitch)
            for _ in range(2)
        )
        by_packet.add_rules(rules)
        by_key.add_rules(rules)
        packets = [
            Ethernet() / IPv4(src=f"10.0.1.{i}", dst="10.0.9.10")
            / Tcp(sport=40000 + i, dport=80)
            for i in range(16)
        ]
        packet_results = [by_packet.process(p, in_port=2, now=1.0)
                          for p in packets]
        key_results = [
            by_key.process(flow_key_from_packet(p, in_port=2,
                                                space=OVS_FIELDS), now=1.0)
            for p in packets
        ]
        assert [_result_fields(r) for r in packet_results] == [
            _result_fields(r) for r in key_results
        ]
        assert by_packet.shard_mask_counts == by_key.shard_mask_counts
        assert by_packet.bucket_packets == by_key.bucket_packets

    def test_dispatch_is_deterministic_and_consistent(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        key = FlowKey(
            OVS_FIELDS,
            {"eth_type": ETHERTYPE_IPV4, "ip_src": 0x0A000001,
             "ip_dst": 0x0A000002, "ip_proto": PROTO_TCP,
             "tp_src": 1234, "tp_dst": 80},
        )
        shard = datapath.shard_of(key)
        assert datapath.shard_of(key) == shard
        datapath.process(key, now=0.0)
        assert [s.stats.packets for s in datapath.shards] == [
            int(i == shard) for i in range(4)
        ]

    def test_rss_ignores_non_steering_fields(self):
        """Only the 5-tuple steers: varying in_port or eth fields must
        not move a flow to another shard."""
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=8, seed=0
        ).dispatched(OvsSwitch)
        key = FlowKey(
            OVS_FIELDS,
            {"eth_type": ETHERTYPE_IPV4, "ip_src": 0x0A000001,
             "ip_dst": 0x0A000002, "ip_proto": PROTO_TCP,
             "tp_src": 1234, "tp_dst": 80},
        )
        moved = key.replace(in_port=9, eth_type=0x86DD)
        assert datapath.shard_of(key) == datapath.shard_of(moved)
        assert set(RSS_FIELDS) == {
            "ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst"
        }

    def test_rss_spreads_distinct_flows(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        shards_hit = {
            datapath.shard_of(
                FlowKey(OVS_FIELDS, {"ip_src": 0x0A000000 + i, "tp_src": i})
            )
            for i in range(64)
        }
        assert shards_hit == {0, 1, 2, 3}

    def test_rss_hash_is_process_stable(self):
        # a pinned value: catches accidental use of salted hash()
        assert rss_hash(0) == rss_hash(0)
        assert rss_hash(1) != rss_hash(2)

    def test_rules_broadcast_and_tenant_removal(self):
        rules, _stream = _rules_and_keys()
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=3, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        assert all(s.rule_count == len(rules) for s in datapath.shards)
        assert datapath.rule_count == len(rules)
        removed = datapath.remove_tenant_rules("mallory")
        assert removed > 0
        assert all(s.rule_count == 0 for s in datapath.shards)

    def test_handle_miss_lands_on_the_rss_shard(self):
        rules, stream = _rules_and_keys(16)
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        key = stream[0]
        datapath.handle_miss(key, now=0.0)
        shard = datapath.shard_of(key)
        assert datapath.shards[shard].megaflow_count == 1
        assert sum(datapath.shard_mask_counts) == 1

    def test_mask_count_is_max_total_is_sum(self):
        rules, stream = _rules_and_keys(64)
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        for key in stream:
            datapath.handle_miss(key, now=0.0)
        per_shard = datapath.shard_mask_counts
        assert datapath.mask_count == max(per_shard)
        assert datapath.total_mask_count == sum(per_shard)
        assert datapath.total_mask_count > datapath.mask_count

    def test_invalidate_caches_flushes_every_shard(self):
        rules, stream = _rules_and_keys(32)
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        datapath.process_batch(stream, now=0.0)
        assert datapath.megaflow_count > 0
        datapath.invalidate_caches()
        assert datapath.megaflow_count == 0
        assert datapath.total_mask_count == 0

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedDatapath(OVS_FIELDS, lambda i: None, shards=0)


class TestPerShardDeterminism:
    """The satellite regression: shard seeds derive from the base seed +
    shard id, so runs reproduce regardless of shard count."""

    def test_identical_builds_behave_identically(self):
        rules, stream = _rules_and_keys()
        runs = []
        for _ in range(2):
            datapath = DatapathConfig(
                KERNEL_PROFILE, shards=3, seed=11
            ).dispatched(OvsSwitch)
            datapath.add_rules(rules)
            batch = datapath.process_batch(stream, now=1.0)
            runs.append(
                (
                    [_result_fields(r) for r in batch],
                    datapath.shard_mask_counts,
                    dataclasses.asdict(datapath.stats),
                )
            )
        assert runs[0] == runs[1]

    def test_shard_seeds_independent_of_shard_count(self):
        # shard i's seed depends only on (base seed, i) — adding shards
        # never reshuffles existing shards' RNG streams
        for i in range(4):
            assert shard_seed(7, i) == shard_seed(7, i)
        small = DatapathConfig(
            KERNEL_PROFILE, shards=2, seed=7
        ).dispatched(OvsSwitch)
        large = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=7
        ).dispatched(OvsSwitch)
        for i in range(2):
            assert (
                small.shards[i].microflow.rng.seed
                == large.shards[i].microflow.rng.seed
            )

    def test_shards_do_not_share_an_rng(self):
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=3, seed=7
        ).dispatched(OvsSwitch)
        seeds = {shard.microflow.rng.seed for shard in datapath.shards}
        assert len(seeds) == 3


class TestMergedStats:
    def test_merge_sums_every_counter(self):
        a = SwitchStats(packets=3, emc_hits=1, tuples_scanned=10)
        b = SwitchStats(packets=4, upcalls=2, hash_probes=5)
        merged = SwitchStats.merge(a, b)
        assert merged.packets == 7
        assert merged.emc_hits == 1
        assert merged.upcalls == 2
        assert merged.tuples_scanned == 10
        assert merged.hash_probes == 5

    def test_merge_of_nothing_is_zero(self):
        assert dataclasses.asdict(SwitchStats.merge()) == dataclasses.asdict(
            SwitchStats()
        )

    def test_datapath_stats_are_merged_shards(self):
        rules, stream = _rules_and_keys(48)
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        datapath.add_rules(rules)
        datapath.process_batch(stream, now=0.0)
        # cross-check against independently hand-summed shard counters
        merged = datapath.stats
        for counter in ("packets", "emc_hits", "megaflow_hits", "upcalls",
                        "tuples_scanned", "hash_probes", "forwarded", "drops"):
            assert getattr(merged, counter) == sum(
                getattr(shard.stats, counter) for shard in datapath.shards
            )
        assert merged.packets == len(stream)
