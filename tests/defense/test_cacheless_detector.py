"""Tests for the cache-less baseline switch and the anomaly detector."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.analysis import AttackDimension
from repro.attack.packets import covert_keys_for_dimensions
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.attack.policy import kubernetes_attack_policy
from repro.defense.cacheless import CachelessSwitch
from repro.defense.detector import MaskAnomalyDetector
from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch


class TestCachelessSwitch:
    def _toy(self):
        space = toy_single_field_space()
        switch = CachelessSwitch(space)
        switch.add_rules(
            [
                FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(), priority=10),
                FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
            ]
        )
        return space, switch

    def test_verdicts_match_reference(self):
        space, switch = self._toy()
        for value in range(256):
            result = switch.process(FlowKey(space, {"ip_src": value}))
            assert result.action.is_forwarding() == (value == 0b00001010)

    def test_cost_is_flat_under_attack_traffic(self):
        """The whole point: probes per packet depend on the rule set
        only, never on what packets were seen before."""
        space, switch = self._toy()
        baseline = switch.process(FlowKey(space, {"ip_src": 7})).groups_probed
        # throw the full covert sequence at it
        dim = AttackDimension("ip_src", 0b00001010, 8, 8)
        for key in covert_keys_for_dimensions([dim], pinned={}, space=space):
            assert switch.process(key).groups_probed == baseline

    def test_group_count_bounded_by_rules(self):
        space, switch = self._toy()
        assert switch.group_count <= len(switch.table) + 1

    def test_priority_across_groups(self):
        space = toy_single_field_space()
        switch = CachelessSwitch(space)
        low = FlowRule(FlowMatch(space, {"ip_src": (0, 0x80)}), Allow(), priority=1)
        high = FlowRule(FlowMatch(space, {"ip_src": (0, 0xC0)}), Drop(), priority=5)
        switch.add_rules([low, high])
        result = switch.process(FlowKey(space, {"ip_src": 0b00100000}))
        assert result.rule is high

    def test_first_added_wins_within_same_region(self):
        space = toy_single_field_space()
        switch = CachelessSwitch(space)
        first = switch.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Allow(), priority=5))
        switch.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Drop(), priority=5))
        assert switch.process(FlowKey(space, {"ip_src": 1})).rule is first

    def test_a_direct_table_mutation_is_seen_by_the_next_packet(self):
        # the groups are keyed on FlowTable.version, so a rule that
        # reaches switch.table by any path is classified against at once
        space, switch = self._toy()
        key = FlowKey(space, {"ip_src": 7})
        assert switch.process(key).rule.priority == 0
        exact = switch.table.add(
            FlowRule(FlowMatch(space, {"ip_src": (7, 0xFF)}), Allow(), priority=20)
        )
        assert switch.process(key).rule is exact
        assert switch.group_count == 2
        switch.table.remove(exact)
        assert switch.process(key).rule.priority == 0
        switch.table.remove_if(lambda rule: rule.priority == 0)
        assert switch.process(key).rule is None
        switch.table.clear()
        assert switch.group_count == 0
        assert switch.process(FlowKey(space, {"ip_src": 0b00001010})).rule is None

    def test_miss_action(self):
        space = toy_single_field_space()
        switch = CachelessSwitch(space)
        switch.add_rule(FlowRule(FlowMatch(space, {"ip_src": (1, 0xFF)}), Allow(), priority=5))
        result = switch.process(FlowKey(space, {"ip_src": 2}))
        assert result.rule is None
        assert isinstance(result.action, Drop)

    def test_real_acl_compiles_and_classifies(self):
        target = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=3, tenant="m")
        policy, _dims = kubernetes_attack_policy()
        switch = CachelessSwitch(OVS_FIELDS)
        switch.add_rules(KubernetesCms().compile(policy, target))
        allowed = FlowKey(
            OVS_FIELDS,
            {"eth_type": 0x0800, "ip_dst": target.pod_ip, "ip_src": ip_to_int("10.0.0.10")},
        )
        assert isinstance(switch.process(allowed).action, Output)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 255))
    def test_agrees_with_reference_table_lookup(self, value):
        space, switch = self._toy()
        key = FlowKey(space, {"ip_src": value})
        reference = switch.table.lookup(key)
        assert switch.process(key).rule is reference


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
        import pytest
        with pytest.raises(ValueError):
            MaskAnomalyDetector(threshold=0)
