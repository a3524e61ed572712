"""Tests for the cache-less baseline datapath and the anomaly detector."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.analysis import AttackDimension
from repro.attack.packets import covert_keys_for_dimensions
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.attack.policy import kubernetes_attack_policy
import pytest

from repro.defense.cacheless import CachelessDatapath, compile_groups
from repro.defense.detector import MaskAnomalyDetector
from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch


class TestCachelessDatapath:
    def _toy(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        datapath.add_rules(
            [
                FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(), priority=10),
                FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
            ]
        )
        return space, datapath

    def test_verdicts_match_reference(self):
        space, datapath = self._toy()
        for value in range(256):
            result = datapath.process(FlowKey(space, {"ip_src": value}))
            assert result.action.is_forwarding() == (value == 0b00001010)

    def test_cost_is_flat_under_attack_traffic(self):
        """The whole point: probes per packet depend on the rule set
        only, never on what packets were seen before."""
        space, datapath = self._toy()
        _rule, baseline = datapath.classify(FlowKey(space, {"ip_src": 7}))
        # throw the full covert sequence at it
        dim = AttackDimension("ip_src", 0b00001010, 8, 8)
        for key in covert_keys_for_dimensions([dim], pinned={}, space=space):
            assert datapath.classify(key)[1] == baseline
            assert datapath.process(key).tuples_scanned == baseline

    def test_group_count_bounded_by_rules(self):
        space, datapath = self._toy()
        assert datapath.mask_count <= len(datapath.table) + 1

    def test_priority_across_groups(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        low = FlowRule(FlowMatch(space, {"ip_src": (0, 0x80)}), Allow(), priority=1)
        high = FlowRule(FlowMatch(space, {"ip_src": (0, 0xC0)}), Drop(), priority=5)
        datapath.add_rules([low, high])
        rule, probed = datapath.classify(FlowKey(space, {"ip_src": 0b00100000}))
        assert rule is high
        assert probed == 2

    def test_first_added_wins_within_same_region(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        first = datapath.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Allow(), priority=5))
        datapath.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Drop(), priority=5))
        assert datapath.classify(FlowKey(space, {"ip_src": 1})) == (first, 1)

    def test_a_direct_table_mutation_is_seen_by_the_next_packet(self):
        # the groups are keyed on FlowTable.version, so a rule that
        # reaches datapath.table by any path is classified against at once
        space, datapath = self._toy()
        key = FlowKey(space, {"ip_src": 7})
        assert datapath.classify(key)[0].priority == 0
        exact = datapath.table.add(
            FlowRule(FlowMatch(space, {"ip_src": (7, 0xFF)}), Allow(), priority=20)
        )
        assert datapath.classify(key) == (exact, 2)
        assert datapath.mask_count == 2
        datapath.table.remove(exact)
        assert datapath.classify(key)[0].priority == 0
        datapath.table.remove_if(lambda rule: rule.priority == 0)
        assert datapath.classify(key) == (None, 1)
        datapath.table.clear()
        assert datapath.mask_count == 0
        assert datapath.classify(FlowKey(space, {"ip_src": 0b00001010})) == (None, 0)

    def test_miss_action(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        datapath.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Allow(), priority=5))
        key = FlowKey(space, {"ip_src": 2})
        assert datapath.classify(key) == (None, 1)
        assert isinstance(datapath.process(key).action, Drop)

    def test_real_acl_compiles_and_classifies(self):
        target = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=3, tenant="m")
        policy, _dims = kubernetes_attack_policy()
        datapath = CachelessDatapath(OVS_FIELDS)
        datapath.add_rules(KubernetesCms().compile(policy, target))
        allowed = FlowKey(
            OVS_FIELDS,
            {"eth_type": 0x0800, "ip_dst": target.pod_ip, "ip_src": ip_to_int("10.0.0.10")},
        )
        assert isinstance(datapath.process(allowed).action, Output)

    def test_groups_keyed_on_packed_mask_and_value(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        first = FlowRule(FlowMatch(space, {"ip_src": (0b1010, 0xFF)}), Allow(), priority=3)
        second = FlowRule(FlowMatch(space, {"ip_src": (0, 0xC0)}), Drop(), priority=2)
        third = FlowRule(FlowMatch(space, {"ip_src": (0b1011, 0xFF)}), Drop(), priority=1)
        datapath.add_rules([first, second, third])
        groups, wildcard_rules = compile_groups(datapath.table)
        assert wildcard_rules == []
        # one group per packed mask, in insertion order; buckets keyed
        # on the packed masked value
        assert groups == [
            (first.match.packed[0], {first.match.packed[1]: first,
                                     third.match.packed[1]: third}),
            (second.match.packed[0], {second.match.packed[1]: second}),
        ]
        assert all(isinstance(mask, int) for mask, _bucket in groups)

    def test_wildcard_rules_compile_apart_in_lookup_order(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        low = FlowRule(FlowMatch.wildcard(space), Drop(), priority=0)
        high = FlowRule(FlowMatch.wildcard(space), Allow(), priority=9)
        datapath.add_rules([low, high])
        groups, wildcard_rules = compile_groups(datapath.table)
        assert groups == []
        assert wildcard_rules == [high, low]
        assert datapath.classify(FlowKey(space, {"ip_src": 3})) == (high, 1)
        assert datapath.mask_count == 1

    def test_batch_counts_into_stats(self):
        space, datapath = self._toy()
        keys = [FlowKey(space, {"ip_src": value}) for value in (0b00001010, 1, 2)]
        batch = datapath.process_batch(keys, now=5.0, materialize=False)
        assert batch.results == []
        assert (batch.packets, batch.forwarded, batch.drops) == (3, 1, 2)
        assert batch.tuples_scanned == batch.hash_probes == 3 * datapath.mask_count
        assert datapath.stats.packets == datapath.tss_lookups == 3
        assert datapath.stats.upcalls == datapath.stats.emc_hits == 0
        assert datapath.clock == 5.0
        datapath.process_batch(keys[:1], now=1.0)
        assert datapath.clock == 5.0  # the clock never runs backwards

    def test_caches_nothing(self):
        space, datapath = self._toy()
        assert datapath.handle_miss(FlowKey(space, {"ip_src": 1})) is None
        assert datapath.stats.packets == 1
        assert (datapath.megaflow_count, datapath.cache_capacity) == (0, 0)
        assert datapath.idle_timeout == float("inf")
        assert not datapath.staged and not datapath.has_flow_cache
        assert datapath.scan_order == "static"
        assert datapath.expected_scan_depth() == 1.5
        with pytest.raises(ValueError):
            datapath.add_install_guard(None)

    def test_remove_tenant_rules(self):
        space = toy_single_field_space()
        datapath = CachelessDatapath(space)
        datapath.add_rules([
            FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Allow(), priority=5, tenant="a"),
            FlowRule(FlowMatch(space, {"ip_src": (2, 0xFF)}), Allow(), priority=5, tenant="b"),
        ])
        assert datapath.remove_tenant_rules("a") == 1
        assert datapath.rule_count == 1
        assert datapath.classify(FlowKey(space, {"ip_src": 1})) == (None, 1)
        assert datapath.classify(FlowKey(space, {"ip_src": 2}))[0].tenant == "b"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 255))
    def test_agrees_with_reference_table_lookup(self, value):
        space, datapath = self._toy()
        key = FlowKey(space, {"ip_src": value})
        reference = datapath.table.lookup(key)
        assert datapath.classify(key)[0] is reference


class TestMaskAnomalyDetector:
    def _attacked_switch(self):
        space = toy_single_field_space()
        switch = OvsSwitch(space=space)
        switch.add_rules(
            [
                FlowRule(
                    FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}),
                    Allow(),
                    priority=10,
                    tenant="mallory",
                ),
                FlowRule(FlowMatch.wildcard(space), Drop(), priority=0, tenant="mallory"),
            ]
        )
        for value in range(256):
            switch.process(FlowKey(space, {"ip_src": value}))
        return switch

    def test_flags_heavy_tenant(self):
        switch = self._attacked_switch()
        detector = MaskAnomalyDetector(threshold=4)
        verdict = detector.observe(switch)
        assert verdict.attack_detected
        assert verdict.flagged == ["mallory"]
        assert verdict.masks_by_tenant["mallory"] == 8

    def test_quiet_tenant_not_flagged(self):
        switch = self._attacked_switch()
        detector = MaskAnomalyDetector(threshold=100)
        verdict = detector.observe(switch)
        assert not verdict.attack_detected

    def test_respond_evicts_and_removes(self):
        switch = self._attacked_switch()
        detector = MaskAnomalyDetector(threshold=4)
        detector.observe(switch)
        evicted, removed = detector.respond(switch, "mallory")
        assert evicted >= 8
        assert removed == 2
        assert switch.mask_count == 0
        assert len(switch.table) == 0

    def test_history_recorded(self):
        switch = self._attacked_switch()
        detector = MaskAnomalyDetector(threshold=4)
        detector.observe(switch)
        detector.observe(switch)
        assert len(detector.history) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MaskAnomalyDetector(threshold=0)
