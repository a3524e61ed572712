"""The bulk entry point's own contract: its aggregates, its clock, the
TSS prefix contract, and the cache-less backend's burst.  That every
engine's ``process_batch`` leaves what per-key ``process()`` calls
leave is the differential machine's claim
(``tests/test_differential_machine.py``)."""

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.net.addresses import ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.flow.key import FlowKey
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import switch_for_profile
from repro.defense.cacheless import CachelessDatapath
from repro.testing.oracles import TupleKeyedSearch


def _loaded_switch():
    switch = switch_for_profile("kernel", seed=3)
    policy, dimensions = kubernetes_attack_policy()
    target = PolicyTarget(
        pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
    )
    switch.add_rules(KubernetesCms().compile(policy, target, OVS_FIELDS))
    return switch, dimensions


def _traffic(dimensions):
    """Covert keys (all misses), repeats (cache hits) and victim-style
    keys, interleaved — every pipeline layer gets exercised."""
    covert = CovertStreamGenerator(
        dimensions, dst_ip=ip_to_int("10.0.9.10")
    ).keys()[:64]
    victim = [
        FlowKey(
            OVS_FIELDS,
            {
                "in_port": 1,
                "eth_type": ETHERTYPE_IPV4,
                "ip_src": 0x0A000100 + i,
                "ip_dst": 0x0A000200,
                "ip_proto": PROTO_TCP,
                "tp_src": 33000 + i,
                "tp_dst": 5201,
            },
        )
        for i in range(4)
    ]
    keys = []
    for i, key in enumerate(covert):
        keys.append(key)
        if i % 8 == 0:
            keys.extend(victim)        # repeated: microflow/megaflow hits
            keys.append(covert[i // 2])  # repeated covert key
    return keys


def _result_fields(result):
    return (
        result.action,
        result.path,
        result.tuples_scanned,
        result.hash_probes,
        result.install_skipped,
    )


class TestBatchAggregates:
    def test_batch_aggregates_match_per_packet_sums(self):
        switch, dimensions = _loaded_switch()
        batch = switch.process_batch(_traffic(dimensions), now=0.5)
        assert batch.tuples_scanned == sum(r.tuples_scanned for r in batch.results)
        assert batch.hash_probes == sum(r.hash_probes for r in batch.results)
        assert batch.forwarded + batch.drops == len(batch)

    def test_batch_advances_clock_once(self):
        switch, dimensions = _loaded_switch()
        switch.process_batch(_traffic(dimensions)[:4], now=2.5)
        assert switch.clock == 2.5

    def test_empty_batch(self):
        switch, _ = _loaded_switch()
        batch = switch.process_batch([], now=1.0)
        assert len(batch) == 0
        assert switch.stats.packets == 0


def _custom_switch(**kwargs):
    switch = OvsSwitch(space=OVS_FIELDS, name="batch-eq", **kwargs)
    policy, dimensions = kubernetes_attack_policy()
    target = PolicyTarget(
        pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
    )
    switch.add_rules(KubernetesCms().compile(policy, target, OVS_FIELDS))
    return switch, dimensions


class TestTssLookupBatch:
    """The TSS-level burst lookup: prefix contract and accounting."""

    def _tss_with_keys(self, oracle=False, **kwargs):
        """A tuple space holding 24 covert megaflows, and their keys;
        ``oracle`` swaps in the per-key tuple-keyed search first."""
        switch, dimensions = _custom_switch(**kwargs)
        if oracle:
            tss = switch.megaflow.tss
            switch.megaflow.tss = TupleKeyedSearch(
                OVS_FIELDS, staged=tss.staged, scan_order=tss.scan_order,
            )
        covert = CovertStreamGenerator(
            dimensions, dst_ip=ip_to_int("10.0.9.10")
        ).keys()[:24]
        for key in covert:
            switch.slow_path.handle(key, now=0.0)
        return switch.megaflow.tss, covert

    def test_all_hits_match_per_key_lookup(self):
        tss, covert = self._tss_with_keys()
        reference, _ = self._tss_with_keys(oracle=True)
        batch_results = tss.lookup_batch(covert)
        single_results = [reference.lookup(key) for key in covert]
        assert len(batch_results) == len(covert)
        assert [(r.hit, r.tuples_scanned, r.hash_probes) for r in batch_results] == [
            (r.hit, r.tuples_scanned, r.hash_probes) for r in single_results
        ]
        assert tss.total_lookups == reference.total_lookups
        assert tss.total_tuples_scanned == reference.total_tuples_scanned

    def test_a_staged_ranked_burst_after_a_resort_matches_the_oracle(self):
        config = {"staged_lookup": True, "scan_order": "ranked"}
        tss, covert = self._tss_with_keys(**config)
        reference, _ = self._tss_with_keys(oracle=True, **config)
        alien = FlowKey(OVS_FIELDS, {"ip_src": 1, "ip_dst": 2})
        first = tss.lookup_batch(covert[5:8])
        assert [r.tuples_scanned for r in first] == [6, 7, 8]
        per_key = [reference.lookup(key) for key in covert[5:8]]
        # the three hit subtables move to the front of the pvector
        tss.resort()
        reference.resort()
        burst = covert[:7] + [alien]
        rest = tss.lookup_batch(burst)
        assert [r.hit for r in rest] == [True] * 7 + [False]
        assert [r.tuples_scanned for r in rest[4:7]] == [8, 1, 2]
        per_key += [reference.lookup(key) for key in burst]

        def seen(results):
            return [(r.hit, r.tuples_scanned, r.hash_probes,
                     r.subtable and r.subtable.packed_mask) for r in results]

        assert seen(first + rest) == seen(per_key)
        # stage probes abort early: a probe count is not a depth
        assert any(r.hash_probes != r.tuples_scanned for r in per_key)
        for counter in ("total_lookups", "total_tuples_scanned",
                        "total_hash_probes", "resorts"):
            assert getattr(tss, counter) == getattr(reference, counter)

    def test_prefix_stops_at_first_miss(self):
        tss, covert = self._tss_with_keys()
        alien = FlowKey(OVS_FIELDS, {"ip_src": 1, "ip_dst": 2})
        burst = covert[:3] + [alien] + covert[3:6]
        results = tss.lookup_batch(burst)
        # three hits plus the miss: keys after the miss are NOT consumed
        assert len(results) == 4
        assert [r.hit for r in results] == [True, True, True, False]
        assert results[3].tuples_scanned == tss.mask_count
        assert tss.total_lookups == 4

    def test_empty_burst(self):
        tss, _covert = self._tss_with_keys()
        assert tss.lookup_batch([]) == []


class TestCachelessBatch:
    def test_batch_equals_sequential(self):
        policy, dimensions = kubernetes_attack_policy()
        target = PolicyTarget(
            pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
        )
        rules = KubernetesCms().compile(policy, target, OVS_FIELDS)

        sequential = CachelessDatapath(OVS_FIELDS)
        batched = CachelessDatapath(OVS_FIELDS)
        sequential.add_rules(rules)
        batched.add_rules(rules)

        keys = _traffic(dimensions)[:32]
        per_packet = [sequential.process(key) for key in keys]
        batch = batched.process_batch(keys)
        assert [_result_fields(r) for r in per_packet] == [
            _result_fields(r) for r in batch.results
        ]
        assert batched.mask_count == sequential.mask_count  # static groups
        assert batched.megaflow_count == 0
