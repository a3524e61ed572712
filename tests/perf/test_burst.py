"""KeyBurst: the workload layer's pre-packed unit of traffic."""

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.perf.burst import KeyBurst
from repro.util.bits import rss_hash


def _keys(n=5):
    return [
        FlowKey(
            OVS_FIELDS,
            {"in_port": 1, "eth_type": ETHERTYPE_IPV4, "ip_src": 10 + i},
        )
        for i in range(n)
    ]


class TestKeyBurst:
    def test_packed_matches_keys(self):
        keys = _keys()
        burst = KeyBurst(keys)
        assert burst.keys is keys
        assert len(burst) == len(keys)

    def test_cyclic_slice_is_the_modulo_walk(self):
        keys = _keys(5)
        burst = KeyBurst(keys)
        for start, count in [(0, 3), (3, 4), (2, 17), (7, 0), (13, 5)]:
            expected = [keys[(start + i) % 5] for i in range(count)]
            assert burst.cyclic_slice(start, count) == expected

    def test_cyclic_slice_empty_burst(self):
        assert KeyBurst([]).cyclic_slice(0, 10) == []

    def test_buckets_cached_per_dispatcher(self):
        from repro.ovs.pmd import ShardedDatapath
        from repro.ovs.switch import OvsSwitch

        def make(shards):
            return ShardedDatapath(
                OVS_FIELDS,
                lambda i: OvsSwitch(space=OVS_FIELDS, name=f"s{i}"),
                shards=shards,
            )

        keys = _keys()
        burst = KeyBurst(keys)
        dispatcher = make(2)
        first = burst.buckets(dispatcher)
        assert first == [
            rss_hash(key.packed & OVS_FIELDS.rss_mask) % dispatcher.reta_size
            for key in keys
        ]
        assert burst.buckets(dispatcher) is first
        assert burst.buckets(make(4)) is not first

    def test_generator_emits_bursts(self):
        _policy, dimensions = kubernetes_attack_policy()
        generator = CovertStreamGenerator(dimensions, dst_ip=0x0A00090A)
        burst = generator.burst()
        assert isinstance(burst, KeyBurst)
        assert burst.keys == generator.keys()
