"""Unit tests for FlowRule ordering and FlowTable lookup semantics."""

import pytest

from repro.flow.actions import Allow, Controller, Drop, Output
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch, MatchBuilder
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable


def _rule(match, action=Allow(), priority=0):
    return FlowRule(match=match, action=action, priority=priority)


class TestActions:
    def test_forwarding_flags(self):
        assert Allow().is_forwarding()
        assert Output(3).is_forwarding()
        assert not Drop().is_forwarding()
        assert not Controller().is_forwarding()

    def test_reprs(self):
        assert repr(Output(3)) == "output:3"
        assert repr(Drop()) == "deny"


class TestFlowTable:
    def test_priority_order(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        low = table.add(_rule(FlowMatch.wildcard(space), Drop(), priority=0))
        high = table.add(
            _rule(MatchBuilder(space).ip_src_cidr("10.0.0.0/8").build(), Allow(), priority=10)
        )
        key = FlowKey(space, {"ip_src": 0x0A000001})
        assert table.lookup(key) is high
        assert table.lookup(FlowKey(space, {"ip_src": 0x0B000001})) is low

    def test_first_added_wins_among_equal_priority(self):
        # the paper: "if multiple rules in the flow table match, the one
        # added first will be applied"
        space = toy_single_field_space()
        table = FlowTable(space)
        first = table.add(_rule(FlowMatch.wildcard(space), Allow(), priority=5))
        table.add(_rule(FlowMatch.wildcard(space), Drop(), priority=5))
        assert table.lookup(FlowKey(space, {"ip_src": 1})) is first

    def test_miss_returns_none(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(_rule(MatchBuilder(space).ip_src("10.0.0.1").build()))
        assert table.lookup(FlowKey(space, {"ip_src": 0x0B000001})) is None

    def test_space_mismatch_rejected(self):
        table = FlowTable(OVS_FIELDS)
        wrong = _rule(FlowMatch.wildcard(toy_single_field_space()))
        with pytest.raises(ValueError):
            table.add(wrong)

    def test_remove(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        rule = table.add(_rule(FlowMatch.wildcard(space)))
        table.remove(rule)
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.remove(rule)

    def test_remove_if_by_tenant(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(FlowRule(FlowMatch.wildcard(space), Allow(), tenant="mallory"))
        table.add(FlowRule(FlowMatch.wildcard(space), Allow(), tenant="alice"))
        removed = table.remove_if(lambda r: r.tenant == "mallory")
        assert removed == 1
        assert [r.tenant for r in table] == ["alice"]

    def test_seq_monotonic_across_clear(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        first = table.add(_rule(FlowMatch.wildcard(space)))
        table.clear()
        second = table.add(_rule(FlowMatch.wildcard(space)))
        assert second.seq > first.seq

    def test_rules_returns_sorted_copy(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        low = table.add(_rule(FlowMatch.wildcard(space), priority=1))
        high = table.add(_rule(FlowMatch.wildcard(space), priority=9))
        assert table.rules() == [high, low]
        table.rules().clear()
        assert len(table) == 2
