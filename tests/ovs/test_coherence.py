"""Cache-coherence property: the fast path never changes a verdict.

Whatever sequence of packets, idle expiries and cache states occurs,
the action returned by the full pipeline (microflow → megaflow → slow
path) must equal the reference flow-table lookup for every packet.
This is the invariant that makes OVS's caching *transparent* — and the
attack notable: the paper breaks performance isolation without ever
breaking correctness, which is why the covert stream looks so benign.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import FieldSpace, FieldSpec
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.ovs.switch import OvsSwitch
from repro.testing.predicates import overlaps

_SPACE = FieldSpace([FieldSpec("f1", 5), FieldSpec("f2", 3)], name="coherence")


@st.composite
def switches(draw):
    switch = OvsSwitch(space=_SPACE, emc_entries=8, emc_ways=2, flow_limit=64)
    n_rules = draw(st.integers(1, 5))
    rules = []
    for _ in range(n_rules):
        fields = {}
        for spec in _SPACE.specs:
            if draw(st.booleans()):
                fields[spec.name] = (
                    draw(st.integers(0, spec.max_value)),
                    draw(st.integers(0, spec.max_value)),
                )
        rules.append(
            FlowRule(
                FlowMatch(_SPACE, fields),
                draw(st.sampled_from([Allow(), Drop(), Output(1)])),
                priority=draw(st.integers(0, 3)),
            )
        )
    switch.add_rules(rules)
    return switch


@st.composite
def traffic(draw):
    events = []
    for _ in range(draw(st.integers(1, 40))):
        events.append(
            (
                draw(st.integers(0, 31)),   # f1
                draw(st.integers(0, 7)),    # f2
                draw(st.floats(0.0, 30.0)), # time delta weirdness is fine
            )
        )
    events.sort(key=lambda e: e[2])
    return events


class TestCoherence:
    @settings(max_examples=200, deadline=None)
    @given(switches(), traffic())
    def test_fast_path_verdicts_equal_slow_path(self, switch, events):
        for f1, f2, now in events:
            key = FlowKey(_SPACE, {"f1": f1, "f2": f2})
            result = switch.process(key, now=now)
            reference = switch.table.lookup(key)
            expected = reference.action if reference else switch.slow_path.miss_action
            assert result.action == expected, (
                f"verdict diverged for {key!r} at t={now} via {result.path}"
            )

    @settings(max_examples=50, deadline=None)
    @given(switches(), traffic())
    def test_megaflows_stay_disjoint(self, switch, events):
        """OVS guarantees megaflow entries are non-overlapping; our
        generation must uphold it under arbitrary traffic (otherwise
        TSS "first match" would be ambiguous)."""
        for f1, f2, now in events:
            switch.process(FlowKey(_SPACE, {"f1": f1, "f2": f2}), now=now)
        entries = switch.megaflow.entries()
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                if overlaps(a.match, b.match):
                    # overlapping regions must carry the same action,
                    # otherwise some packet's verdict depends on scan order
                    assert a.action == b.action, (
                        f"overlapping megaflows with different actions: "
                        f"{a.match!r} -> {a.action!r} vs {b.match!r} -> {b.action!r}"
                    )

    @settings(max_examples=50, deadline=None)
    @given(switches(), traffic(), st.floats(31.0, 100.0))
    def test_coherence_survives_expiry(self, switch, events, later):
        for f1, f2, now in events:
            switch.process(FlowKey(_SPACE, {"f1": f1, "f2": f2}), now=now)
        # jump past the idle timeout, forcing a full reinstall cycle
        switch.advance_clock(later + 20.0)
        for f1, f2, _now in events:
            key = FlowKey(_SPACE, {"f1": f1, "f2": f2})
            result = switch.process(key, now=later + 21.0)
            reference = switch.table.lookup(key)
            expected = reference.action if reference else switch.slow_path.miss_action
            assert result.action == expected
