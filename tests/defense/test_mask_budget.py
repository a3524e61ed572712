"""Regression + property tests: the mask budget is a *hard* cap.

The seed's ``MaskLimitGuard`` (mode="exact") could exceed its own
budget: with ``mask_count == max_masks`` and no all-exact subtable yet,
degradation created subtable ``max_masks + 1``.  The cap is now
inclusive of the exact subtable — ``mask_count`` must never exceed
``max_masks`` under any mode, any traffic order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defense.mask_limit import MaskLimitGuard
from repro.flow.actions import Allow, Drop
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.ovs.switch import OvsSwitch
from repro.testing.predicates import is_exact


def _toy_attack_switch(**kwargs):
    """The Fig. 2-style toy ACL (8 reachable deny masks + 1 exact)."""
    space = toy_single_field_space()
    switch = OvsSwitch(space=space, **kwargs)
    switch.add_rules(
        [
            FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}),
                     Allow(), priority=10),
            FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
        ]
    )
    return space, switch


class TestHardCapRegression:
    def test_exact_mode_never_exceeds_budget(self):
        """The exact off-by-one scenario: wildcard masks fill the budget,
        then a degradation must not create subtable max_masks + 1."""
        for max_masks in range(1, 9):
            space, switch = _toy_attack_switch()
            switch.add_install_guard(MaskLimitGuard(max_masks, mode="exact"))
            for value in range(256):
                switch.process(FlowKey(space, {"ip_src": value}))
                assert switch.mask_count <= max_masks, (
                    f"max_masks={max_masks}: cap exceeded "
                    f"({switch.mask_count} masks)"
                )

    def test_degradation_still_caches_exactly(self):
        """Within the cap, degraded flows land in the all-exact subtable
        (the defense trades masks for entries, not for correctness)."""
        space, switch = _toy_attack_switch()
        guard = MaskLimitGuard(3, mode="exact")
        switch.add_install_guard(guard)
        for value in range(256):
            result = switch.process(FlowKey(space, {"ip_src": value}))
            assert result.forwarded == (value == 0b00001010)
        assert guard.degraded > 0
        assert switch.mask_count <= 3
        exact_mask = space.pack([spec.max_value for spec in space.specs])
        assert switch.megaflow.tss.find_subtable(exact_mask) is not None

    def test_max_masks_one_degrades_everything(self):
        """The tightest cap: the single slot goes to the exact subtable."""
        space, switch = _toy_attack_switch()
        switch.add_install_guard(MaskLimitGuard(1, mode="exact"))
        for value in range(64):
            switch.process(FlowKey(space, {"ip_src": value}))
            assert switch.mask_count <= 1
        for entry in switch.megaflow.entries():
            assert is_exact(entry.match)


class TestHardCapProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from(["exact", "reject"]),
        st.lists(st.integers(0, 255), min_size=1, max_size=80),
    )
    def test_cap_holds_for_any_traffic(self, max_masks, mode, values):
        space, switch = _toy_attack_switch()
        switch.add_install_guard(MaskLimitGuard(max_masks, mode=mode))
        for value in values:
            result = switch.process(FlowKey(space, {"ip_src": value}))
            assert switch.mask_count <= max_masks
            # the verdict is never affected, only caching
            assert result.forwarded == (value == 0b00001010)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from(["exact", "reject"]),
        st.lists(
            st.tuples(st.integers(0, 0xFF), st.integers(0, 1023)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_cap_holds_on_multi_field_space(self, max_masks, mode, flows):
        """Same invariant over the real OVS field space, where megaflow
        masks span several fields."""
        switch = OvsSwitch(space=OVS_FIELDS)
        switch.add_rules(
            [
                FlowRule(
                    FlowMatch(OVS_FIELDS, {"ip_src": (0x0A000000, 0xFF000000),
                                           "tp_dst": (80, 0xFFC0)}),
                    Allow(),
                    priority=10,
                ),
                FlowRule(FlowMatch.wildcard(OVS_FIELDS), Drop(), priority=0),
            ]
        )
        switch.add_install_guard(MaskLimitGuard(max_masks, mode=mode))
        for octet, port in flows:
            key = FlowKey(
                OVS_FIELDS,
                {"eth_type": 0x0800, "ip_src": (octet << 24) | 1,
                 "ip_proto": 6, "tp_dst": port},
            )
            switch.process(key)
            assert switch.mask_count <= max_masks
