"""Tests for the full OVS pipeline (switch façade, upcalls, revalidator)."""

import pytest

from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch, MatchBuilder
from repro.flow.rule import FlowRule
from repro.net.ethernet import Ethernet
from repro.net.ipv4 import IPv4
from repro.net.l4 import Tcp
from repro.ovs.revalidator import SWEEP_INTERVAL
from repro.ovs.switch import LookupPath, OvsSwitch
from repro.ovs.upcall import InstallRejected
from repro.testing.predicates import is_exact


def _toy_switch():
    space = toy_single_field_space()
    switch = OvsSwitch(space=space, name="test")
    switch.add_rules(
        [
            FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(), priority=10),
            FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
        ]
    )
    return space, switch


class TestPipelinePaths:
    def test_first_packet_takes_upcall(self):
        space, switch = _toy_switch()
        result = switch.process(FlowKey(space, {"ip_src": 0b00001010}))
        assert result.path is LookupPath.UPCALL
        assert result.forwarded
        assert switch.stats.upcalls == 1

    def test_second_packet_hits_microflow(self):
        space, switch = _toy_switch()
        key = FlowKey(space, {"ip_src": 0b00001010})
        switch.process(key)
        result = switch.process(key)
        assert result.path is LookupPath.MICROFLOW
        assert result.tuples_scanned == 0
        assert switch.stats.emc_hits == 1

    def test_sibling_flow_hits_megaflow(self):
        # a different denied value inside the same megaflow region is
        # served by the wildcard cache without an upcall
        space, switch = _toy_switch()
        switch.process(FlowKey(space, {"ip_src": 0b10000000}))  # mask 1000 0000
        result = switch.process(FlowKey(space, {"ip_src": 0b11111111}))
        assert result.path is LookupPath.MEGAFLOW
        assert not result.forwarded
        assert switch.stats.upcalls == 1

    def test_verdicts_match_slow_path(self):
        space, switch = _toy_switch()
        for value in range(256):
            result = switch.process(FlowKey(space, {"ip_src": value}))
            assert result.forwarded == (value == 0b00001010)

    def test_fig2_masks_accumulate(self):
        space, switch = _toy_switch()
        for value in range(256):
            switch.process(FlowKey(space, {"ip_src": value}))
        assert switch.mask_count == 8  # 8 masks; allow shares the /8 exact one
        assert switch.megaflow_count == 9  # 8 deny + 1 allow entries

    def test_process_accepts_packets(self):
        switch = OvsSwitch(space=OVS_FIELDS)
        switch.add_rule(
            FlowRule(
                MatchBuilder(OVS_FIELDS).ip_dst("10.0.0.2").build(),
                Output(4),
                priority=1,
            )
        )
        pkt = Ethernet() / IPv4(src="10.0.0.1", dst="10.0.0.2") / Tcp(sport=1, dport=2)
        result = switch.process(pkt, in_port=2)
        assert isinstance(result.action, Output)
        assert result.action.port == 4


class TestCacheInvalidation:
    def test_rule_change_flushes_caches(self):
        space, switch = _toy_switch()
        key = FlowKey(space, {"ip_src": 0b00001010})
        switch.process(key)
        assert switch.megaflow_count == 1
        switch.add_rule(FlowRule(FlowMatch.wildcard(space), Drop(), priority=20))
        assert switch.megaflow_count == 0
        # the new higher-priority deny now wins
        result = switch.process(key)
        assert not result.forwarded

    def test_remove_tenant_rules(self):
        space = OVS_FIELDS
        switch = OvsSwitch(space=space)
        switch.add_rule(
            FlowRule(FlowMatch.wildcard(space), Drop(), priority=1, tenant="mallory")
        )
        assert switch.remove_tenant_rules("mallory") == 1
        assert switch.remove_tenant_rules("mallory") == 0


class TestIdleExpiryIntegration:
    def test_idle_megaflows_reaped_by_revalidator(self):
        space, switch = _toy_switch()
        switch.process(FlowKey(space, {"ip_src": 0b10000000}), now=0.0)
        assert switch.megaflow_count == 1
        switch.advance_clock(11.0)
        assert switch.megaflow_count == 0

    def test_refreshed_flow_survives(self):
        space, switch = _toy_switch()
        key = FlowKey(space, {"ip_src": 0b10000000})
        switch.process(key, now=0.0)
        switch.process(key, now=8.0)
        switch.advance_clock(14.0)  # idle 6s < 10s
        assert switch.megaflow_count == 1

    def test_revalidator_sweep_interval(self):
        space, switch = _toy_switch()
        reval = switch.revalidator
        switch.process(FlowKey(space, {"ip_src": 1}), now=0.0)
        sweeps_before = reval.sweeps
        switch.advance_clock(0.1)  # below the 0.5s interval
        assert reval.sweeps == sweeps_before


    def test_revalidator_sweeps_on_its_constant_grid(self):
        space, switch = _toy_switch()
        reval = switch.revalidator
        for k in range(1, 5):
            switch.advance_clock(k * SWEEP_INTERVAL - 0.01)
            assert reval.sweeps == k - 1
            switch.advance_clock(k * SWEEP_INTERVAL)
            assert reval.sweeps == k
            assert reval.last_sweep == k * SWEEP_INTERVAL

class TestFlowLimit:
    def test_upcall_install_skipped_at_limit(self):
        space = toy_single_field_space()
        switch = OvsSwitch(space=space, flow_limit=2)
        switch.add_rules(
            [
                # the allow rule makes denied packets produce distinct masks
                FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(), priority=10),
                FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
            ]
        )
        seen = set()
        for value in (0b10000000, 0b01000000, 0b00100000):
            result = switch.process(FlowKey(space, {"ip_src": value}))
            seen.add(result.install_skipped)
        assert switch.megaflow_count <= 2
        assert True in seen  # at least one install was refused
        assert switch.stats.upcalls_rejected >= 1


class TestGuardIntegration:
    def test_guard_veto_still_forwards(self):
        space, switch = _toy_switch()

        def veto(_context):
            raise InstallRejected("no caching today")

        switch.add_install_guard(veto)
        result = switch.process(FlowKey(space, {"ip_src": 0b00001010}))
        assert result.forwarded          # verdict unaffected
        assert result.install_skipped
        assert switch.megaflow_count == 0

    def test_guard_replacement_is_installed(self):
        space, switch = _toy_switch()

        def make_exact(context):
            return FlowMatch.exact(space, context.key)

        switch.add_install_guard(make_exact)
        switch.process(FlowKey(space, {"ip_src": 0b10000000}))
        entries = switch.megaflow.entries()
        assert len(entries) == 1
        assert is_exact(entries[0].match)


class TestStats:
    def test_snapshot_and_reset(self):
        space, switch = _toy_switch()
        switch.process(FlowKey(space, {"ip_src": 1}))
        snap = switch.stats.snapshot()
        assert snap["packets"] == 1
        assert snap["upcalls"] == 1
        switch.stats.reset()
        assert switch.stats.packets == 0

    def test_hit_rate_properties(self):
        space, switch = _toy_switch()
        key = FlowKey(space, {"ip_src": 3})
        switch.process(key)
        switch.process(key)
        assert switch.stats.emc_hit_rate == pytest.approx(0.5)
        assert switch.stats.avg_tuples_per_megaflow_lookup >= 0
