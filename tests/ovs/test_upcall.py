"""Unit tests for the slow-path upcall layer (guards, miss handling)."""

import pytest

from repro.flow.actions import Allow, Controller, Drop
from repro.flow.fields import toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.ovs.megaflow import MegaflowCache
from repro.ovs.upcall import InstallContext, InstallRejected, SlowPath
from repro.testing.predicates import is_exact


def _slow_path(miss_action=None, flow_limit=100):
    space = toy_single_field_space()
    table = FlowTable(space)
    table.add(
        FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(),
                 priority=10, tenant="mallory")
    )
    cache = MegaflowCache(space, flow_limit=flow_limit)
    return space, SlowPath(table, cache, miss_action=miss_action)


class TestHandling:
    def test_match_installs_and_returns_action(self):
        space, slow_path = _slow_path()
        result = slow_path.handle(FlowKey(space, {"ip_src": 0b00001010}), now=1.0)
        assert isinstance(result.action, Allow)
        assert result.installed is not None
        assert result.installed.tenant == "mallory"
        assert result.installed.created_at == 1.0
        assert slow_path.installs == 1

    def test_miss_uses_default_drop(self):
        space, slow_path = _slow_path()
        result = slow_path.handle(FlowKey(space, {"ip_src": 0xFF}))
        assert isinstance(result.action, Drop)
        assert result.classification.rule is None

    def test_custom_miss_action(self):
        space, slow_path = _slow_path(miss_action=Controller())
        result = slow_path.handle(FlowKey(space, {"ip_src": 0xFF}))
        assert isinstance(result.action, Controller)

    def test_flow_limit_reported(self):
        space, slow_path = _slow_path(flow_limit=1)
        slow_path.handle(FlowKey(space, {"ip_src": 0b10000000}))
        result = slow_path.handle(FlowKey(space, {"ip_src": 0b01000000}))
        assert result.install_skipped == "flow-limit"
        assert result.installed is None
        assert slow_path.installs_skipped == 1

    def test_upcall_counter(self):
        space, slow_path = _slow_path()
        for value in range(5):
            slow_path.handle(FlowKey(space, {"ip_src": value}))
        assert slow_path.upcalls == 5


class TestGuardChain:
    def test_context_contents(self):
        space, slow_path = _slow_path()
        seen: list[InstallContext] = []

        def spy(context):
            seen.append(context)
            return None

        slow_path.add_guard(spy)
        key = FlowKey(space, {"ip_src": 0b00001010})
        slow_path.handle(key, now=3.5)
        context = seen[0]
        assert context.key == key
        assert context.now == 3.5
        assert context.tenant == "mallory"
        assert isinstance(context.action, Allow)
        assert context.cache is slow_path.cache

    def test_guards_compose_in_order(self):
        space, slow_path = _slow_path()
        calls = []

        def first(context):
            calls.append("first")
            return FlowMatch.exact(space, context.key)

        def second(context):
            calls.append("second")
            # second guard sees the replacement from the first
            assert is_exact(context.match)
            return None

        slow_path.add_guard(first)
        slow_path.add_guard(second)
        result = slow_path.handle(FlowKey(space, {"ip_src": 0b10000000}))
        assert calls == ["first", "second"]
        assert is_exact(result.installed.match)

    def test_guard_veto_marks_skipped(self):
        space, slow_path = _slow_path()

        def veto(_context):
            raise InstallRejected("nope")

        slow_path.add_guard(veto)
        result = slow_path.handle(FlowKey(space, {"ip_src": 1}))
        assert result.install_skipped == "guard"
        assert result.installed is None
        # the verdict is still produced
        assert isinstance(result.action, Drop)
