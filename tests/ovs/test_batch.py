"""process_batch equivalence: the bulk entry point must produce results
and accounting identical to per-packet process() calls."""

import dataclasses

import pytest

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
from repro.scenario.datapath import CachelessDatapath
from repro.vec import HAVE_NUMPY


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


class TestBatchEquivalence:
    def test_batch_equals_sequential(self):
        sequential, dimensions = _loaded_switch()
        batched, _ = _loaded_switch()
        keys = _traffic(dimensions)

        per_packet = [sequential.process(key, now=1.0) for key in keys]
        batch = batched.process_batch(keys, now=1.0)

        assert [_result_fields(r) for r in per_packet] == [
            _result_fields(r) for r in batch.results
        ]
        # scan accounting and every other counter must agree exactly
        assert dataclasses.asdict(sequential.stats) == dataclasses.asdict(batched.stats)
        assert sequential.mask_count == batched.mask_count
        assert sequential.megaflow_count == batched.megaflow_count

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


class TestBatchEquivalenceMatrix:
    """The bucketed batch pipeline must stay bit-identical to sequential
    processing across every TSS configuration — including the ranked
    pvector with mid-burst auto-re-sorts, the tuple reference path,
    staged lookup, and an eviction-heavy tiny
    EMC (the hardest case for deferred microflow inserts)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scan_order": "ranked", "resort_interval": 7},
            {"scan_order": "ranked", "resort_interval": 1},
            {"key_mode": "tuple"},
            {"staged_lookup": True},
            {"emc_entries": 8, "emc_ways": 1},
            {"emc_entries": 8, "emc_ways": 2, "scan_order": "ranked",
             "resort_interval": 5},
        ],
        ids=[
            "ranked-resort7", "ranked-resort1", "tuple-keys",
            "staged", "tiny-emc", "tiny-emc-ranked",
        ],
    )
    def test_batch_equals_sequential(self, kwargs):
        sequential, dimensions = _custom_switch(**kwargs)
        batched, _ = _custom_switch(**kwargs)
        keys = _traffic(dimensions)
        # a hit-heavy tail lets the adaptive chunk window ramp up
        keys = keys + keys[: len(keys) // 2]

        per_packet = [sequential.process(key, now=1.0) for key in keys]
        batch = batched.process_batch(keys, now=1.0)

        assert [_result_fields(r) for r in per_packet] == [
            _result_fields(r) for r in batch.results
        ]
        assert dataclasses.asdict(sequential.stats) == dataclasses.asdict(
            batched.stats
        )
        assert sequential.mask_count == batched.mask_count
        assert sequential.megaflow_count == batched.megaflow_count
        seq_tss = sequential.megaflow.tss
        bat_tss = batched.megaflow.tss
        assert seq_tss.total_lookups == bat_tss.total_lookups
        assert seq_tss.total_tuples_scanned == bat_tss.total_tuples_scanned
        assert seq_tss.total_hash_probes == bat_tss.total_hash_probes
        assert seq_tss.resorts == bat_tss.resorts
        # the ranked pvector must have converged to the same order
        assert [
            s.masks for s in seq_tss.subtables()
        ] == [s.masks for s in bat_tss.subtables()]
        # and the microflow caches must hold the same population
        assert sequential.microflow.occupancy == batched.microflow.occupancy

    def test_process_is_the_single_key_special_case(self):
        a, dimensions = _custom_switch()
        b, _ = _custom_switch()
        keys = _traffic(dimensions)[:32]
        for key in keys:
            one = a.process(key, now=1.0)
            via_batch = b.process_batch([key], now=1.0)
            assert len(via_batch) == 1
            assert _result_fields(one) == _result_fields(via_batch.results[0])
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)


class TestTssLookupBatch:
    """The TSS-level burst lookup: prefix contract and accounting."""

    def _tss_with_keys(self, **kwargs):
        switch, dimensions = _custom_switch(**kwargs)
        covert = CovertStreamGenerator(
            dimensions, dst_ip=ip_to_int("10.0.9.10")
        ).keys()[:24]
        for key in covert:
            switch.slow_path.handle(key, now=0.0)
        return switch.megaflow.tss, covert

    def test_all_hits_match_per_key_lookup(self):
        tss, covert = self._tss_with_keys()
        reference, _ = self._tss_with_keys()
        batch_results = tss.lookup_batch(covert)
        single_results = [reference.lookup(key) for key in covert]
        assert len(batch_results) == len(covert)
        assert [(r.hit, r.tuples_scanned, r.hash_probes) for r in batch_results] == [
            (r.hit, r.tuples_scanned, r.hash_probes) for r in single_results
        ]
        assert tss.total_lookups == reference.total_lookups
        assert tss.total_tuples_scanned == reference.total_tuples_scanned

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

    def test_ranked_burst_stops_at_resort_boundary(self):
        tss, covert = self._tss_with_keys(
            scan_order="ranked", resort_interval=5
        )
        assert tss.resorts == 0
        results = tss.lookup_batch(covert)
        # capped at the auto-re-sort, which fired on the 5th lookup
        assert len(results) == 5
        assert tss.resorts == 1
        assert tss.lookup_batch(covert[5:]) is not None

    def test_empty_burst(self):
        tss, _covert = self._tss_with_keys()
        assert tss.lookup_batch([]) == []


class TestVecBatchEquivalence:
    """The ``ovs-vec`` columnar engine must be observationally identical
    to the reference switch on the same traffic — results, stats, mask
    pvector, TSS counters and EMC occupancy — across the same
    configuration matrix the batch pipeline is held to (including the
    duplicate-heavy victim interleave in ``_traffic``).  The two share
    the burst bookkeeping, so both are also held to the per-key oracle:
    the same traffic through ``OvsSwitch.process()``, one key a call."""

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"scan_order": "ranked", "resort_interval": 7},
            {"scan_order": "ranked", "resort_interval": 1},
            {"staged_lookup": True},
            {"emc_entries": 8, "emc_ways": 1},
        ],
        ids=["plain", "ranked-resort7", "ranked-resort1", "staged",
             "tiny-emc"],
    )
    def test_vec_equals_reference(self, kwargs):
        for materialize in (True, False):
            self._check(kwargs, materialize)

    def _check(self, kwargs, materialize):
        from repro.vec.engine import VecSwitch

        ref, dimensions = _custom_switch(**kwargs)
        oracle, _ = _custom_switch(**kwargs)
        vec = VecSwitch(space=OVS_FIELDS, name="batch-eq", **kwargs)
        policy, _ = kubernetes_attack_policy()
        target = PolicyTarget(
            pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
        )
        vec.add_rules(KubernetesCms().compile(policy, target, OVS_FIELDS))
        keys = _traffic(dimensions)
        keys = keys + keys[: len(keys) // 2]  # duplicate-heavy tail

        now = 1.0
        oracle_results = []
        ref_results = []
        vec_results = []
        for start in range(0, len(keys), 41):
            chunk = keys[start:start + 41]
            oracle_results.extend(oracle.process(key, now=now)
                                  for key in chunk)
            ref_results.extend(
                ref.process_batch(chunk, now=now, materialize=materialize)
                .results
            )
            vec_results.extend(
                vec.process_batch(chunk, now=now, materialize=materialize)
                .results
            )
            now += 0.25

        expected = [_result_fields(r) for r in oracle_results]
        for results in (ref_results, vec_results):
            assert [_result_fields(r) for r in results] == (
                expected if materialize else []
            )
        ot = oracle.megaflow.tss
        for switch in (ref, vec):
            assert dataclasses.asdict(switch.stats) == dataclasses.asdict(
                oracle.stats
            )
            assert switch.mask_count == oracle.mask_count
            assert switch.megaflow_count == oracle.megaflow_count
            tss = switch.megaflow.tss
            assert tss.total_lookups == ot.total_lookups
            assert tss.total_tuples_scanned == ot.total_tuples_scanned
            assert tss.total_hash_probes == ot.total_hash_probes
            assert tss.resorts == ot.resorts
            assert [s.masks for s in tss.subtables()] == [
                s.masks for s in ot.subtables()
            ]
            assert switch.microflow.occupancy == oracle.microflow.occupancy


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
