"""Tests for slow-path classification with megaflow generation.

Includes the reproduction's two crown-jewel checks:

* Fig. 2b is regenerated **bit-exactly**; and
* the correctness invariant — any packet matching a generated megaflow
  receives the same decision as a full slow-path lookup — holds on
  randomly generated rule tables (hypothesis).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import FieldSpace, FieldSpec, OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch, MatchBuilder
from repro.flow.rule import FlowRule
from repro.flow.table import FlowTable
from repro.ovs.wildcarding import (
    WildcardingResult,
    classify_with_wildcards,
    prefix_cover_len,
)
from repro.testing import oracles
from repro.testing.predicates import overlaps
from repro.util.bits import mask_of_prefix

_ACTIONS = (Allow(), Drop(), Output(1), Output(2))


class TestPrefixCoverLen:
    def test_zero_mask(self):
        assert prefix_cover_len(0, 8) == 0

    def test_prefix_masks(self):
        assert prefix_cover_len(0b11100000, 8) == 3
        assert prefix_cover_len(0xFF, 8) == 8
        assert prefix_cover_len(0xFF000000, 32) == 8

    def test_arbitrary_mask_is_covered_conservatively(self):
        assert prefix_cover_len(0b10000001, 8) == 8
        assert prefix_cover_len(0b00110000, 8) == 4

    @given(st.integers(1, 255))
    def test_cover_contains_all_set_bits(self, mask):
        cover = prefix_cover_len(mask, 8)
        assert mask_of_prefix(cover, 8) & mask == mask


def _fig2_table():
    space = toy_single_field_space()
    table = FlowTable(space)
    table.add(FlowRule(FlowMatch(space, {"ip_src": (0b00001010, 0xFF)}), Allow(), priority=10))
    table.add(FlowRule(FlowMatch.wildcard(space), Drop(), priority=0))
    return space, table


class TestFig2Exact:
    def test_allow_packet_megaflow(self):
        space, table = _fig2_table()
        result = classify_with_wildcards(table, FlowKey(space, {"ip_src": 0b00001010}))
        assert isinstance(result.rule.action, Allow)
        assert result.megaflow.masks == (0xFF,)
        assert result.megaflow.values == (0b00001010,)

    @pytest.mark.parametrize(
        "packet,key,mask",
        [
            (0b10000000, 0b10000000, 0b10000000),
            (0b01000000, 0b01000000, 0b11000000),
            (0b00100000, 0b00100000, 0b11100000),
            (0b00010000, 0b00010000, 0b11110000),
            (0b00000000, 0b00000000, 0b11111000),
            (0b00001100, 0b00001100, 0b11111100),
            (0b00001000, 0b00001000, 0b11111110),
            (0b00001011, 0b00001011, 0b11111111),
        ],
    )
    def test_fig2b_deny_rows(self, packet, key, mask):
        space, table = _fig2_table()
        result = classify_with_wildcards(table, FlowKey(space, {"ip_src": packet}))
        assert isinstance(result.rule.action, Drop)
        assert result.megaflow.masks == (mask,)
        assert result.megaflow.values == (key,)

    def test_eight_deny_masks_total(self):
        # "This technique creates 8 masks and so 8 iterations for the TSS"
        space, table = _fig2_table()
        masks = set()
        for value in range(256):
            result = classify_with_wildcards(table, FlowKey(space, {"ip_src": value}))
            if isinstance(result.rule.action, Drop):
                masks.add(result.megaflow.masks)
        assert len(masks) == 8


class TestCrossProduct:
    """The multiplicative mask space behind the 512/8192 counts."""

    def _two_rule_table(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(FlowRule(MatchBuilder(space).ip_src("10.0.0.10").build(), Allow(), priority=10))
        table.add(FlowRule(MatchBuilder(space).field("tp_dst", 80).build(), Allow(), priority=10))
        table.add(FlowRule(FlowMatch.wildcard(space), Drop(), priority=0))
        return space, table

    def test_denied_packet_witnesses_both_fields(self):
        space, table = self._two_rule_table()
        # differs from 10.0.0.10 at ip bit 5 (l=6), from port 80 at bit 10 (l=11)
        from repro.util.bits import bit_flip
        key = FlowKey(
            space,
            {"ip_src": bit_flip(0x0A00000A, 5, 32), "tp_dst": bit_flip(80, 10, 16)},
        )
        result = classify_with_wildcards(table, key)
        assert isinstance(result.rule.action, Drop)
        lens = dict(zip([s.name for s in space.specs], result.prefix_lens))
        assert lens["ip_src"] == 6
        assert lens["tp_dst"] == 11

    def test_single_rule_conjunction_does_not_multiply(self):
        # one rule constraining both fields: the witness stops at the
        # first mismatching field, so tp_dst stays wildcarded
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(
            FlowRule(
                MatchBuilder(space).ip_src("10.0.0.10").field("tp_dst", 80).build(),
                Allow(),
                priority=10,
            )
        )
        table.add(FlowRule(FlowMatch.wildcard(space), Drop(), priority=0))
        key = FlowKey(space, {"ip_src": 0xDE000000, "tp_dst": 443})
        result = classify_with_wildcards(table, key)
        lens = dict(zip([s.name for s in space.specs], result.prefix_lens))
        assert lens["ip_src"] == 1  # witness at the first differing bit
        assert lens["tp_dst"] == 0  # never examined

    def test_confirmed_field_fully_unwildcarded(self):
        # packet matches the ip rule -> ip fully confirmed in the megaflow
        space, table = self._two_rule_table()
        key = FlowKey(space, {"ip_src": 0x0A00000A, "tp_dst": 443})
        result = classify_with_wildcards(table, key)
        assert isinstance(result.rule.action, Allow)
        lens = dict(zip([s.name for s in space.specs], result.prefix_lens))
        assert lens["ip_src"] == 32

    def test_rules_after_winner_do_not_unwildcard(self):
        space, table = self._two_rule_table()
        key = FlowKey(space, {"ip_src": 0x0A00000A})  # matches rule 1
        result = classify_with_wildcards(table, key)
        lens = dict(zip([s.name for s in space.specs], result.prefix_lens))
        assert lens["tp_dst"] == 0  # rule 2 was never examined
        assert result.rules_examined == 1


class TestAlwaysExactFields:
    def test_in_port_materialised_fully(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(
            FlowRule(
                MatchBuilder(space).field("in_port", 3).build(), Allow(), priority=5
            )
        )
        table.add(FlowRule(FlowMatch.wildcard(space), Drop(), priority=0))
        # mismatching in_port must still produce a full-width mask, not a
        # witness prefix (OVS keeps metadata exact in megaflows)
        result = classify_with_wildcards(table, FlowKey(space, {"in_port": 7}))
        lens = dict(zip([s.name for s in space.specs], result.prefix_lens))
        assert lens["in_port"] == 16


class TestTableMiss:
    def test_miss_produces_megaflow_and_no_rule(self):
        space = OVS_FIELDS
        table = FlowTable(space)
        table.add(FlowRule(MatchBuilder(space).ip_src("10.0.0.1").build(), Allow(), priority=5))
        result = classify_with_wildcards(table, FlowKey(space, {"ip_src": 0xBB000000}))
        assert result.rule is None
        assert result.megaflow.matches(FlowKey(space, {"ip_src": 0xBB000000}))


# -- the correctness invariant, property-tested ----------------------------

_PROP_SPACE = FieldSpace(
    [FieldSpec("f1", 4), FieldSpec("f2", 4), FieldSpec("f3", 3)],
    name="prop",
)


@st.composite
def random_tables(draw):
    table = FlowTable(_PROP_SPACE)
    n_rules = draw(st.integers(1, 6))
    for i in range(n_rules):
        fields = {}
        for spec in _PROP_SPACE.specs:
            if draw(st.booleans()):
                mask = draw(st.integers(0, spec.max_value))
                value = draw(st.integers(0, spec.max_value))
                fields[spec.name] = (value, mask)
        table.add(
            FlowRule(
                FlowMatch(_PROP_SPACE, fields),
                draw(st.sampled_from(_ACTIONS)),
                priority=draw(st.integers(0, 3)),
            )
        )
    return table


@st.composite
def random_keys(draw):
    return FlowKey(
        _PROP_SPACE,
        {spec.name: draw(st.integers(0, spec.max_value)) for spec in _PROP_SPACE.specs},
    )


class TestCorrectnessInvariant:
    @settings(max_examples=300, deadline=None)
    @given(random_tables(), random_keys(), random_keys())
    def test_megaflow_preserves_decision(self, table, key, other):
        """Any packet matching the generated megaflow must get the same
        winning rule as a full lookup — the invariant that makes the
        megaflow cache semantically safe (and that OVS's own wildcarding
        must uphold while being as broad as possible)."""
        result = classify_with_wildcards(table, key)
        # the triggering packet itself always matches its megaflow
        assert result.megaflow.matches(key)
        # the winner agrees with the reference lookup
        assert result.rule is table.lookup(key)
        # and every other packet inside the megaflow agrees too
        if result.megaflow.matches(other):
            assert table.lookup(other) is result.rule

    @settings(max_examples=150, deadline=None)
    @given(random_tables(), random_keys())
    def test_megaflow_masks_are_prefixes(self, table, key):
        result = classify_with_wildcards(table, key)
        for mask, spec in zip(result.megaflow.masks, _PROP_SPACE.specs):
            cover = prefix_cover_len(mask, spec.width)
            assert mask == mask_of_prefix(cover, spec.width)


# -- the compiled walk held to the per-rule loop, over any field space -------

@st.composite
def _spaces(draw):
    """Fig. 2's one 8-bit field (1 in 8), else 1-4 fields of 1-13 bits
    (so packed offsets fall mid-byte), sometimes one ``always_exact``."""
    if draw(st.integers(0, 7)) == 0:
        return toy_single_field_space()
    widths = draw(st.lists(st.integers(1, 13), min_size=1, max_size=4))
    exact = draw(st.none() | st.integers(0, len(widths) - 1))
    return FieldSpace([FieldSpec(f"f{i}", width, always_exact=(i == exact))
                       for i, width in enumerate(widths)], name="generated")


@st.composite
def _matches(draw, space):
    """Each field wild, a prefix, exact or an arbitrary mask."""
    fields = {}
    for spec in space.specs:
        shape = draw(st.sampled_from(["wild", "prefix", "exact", "arbitrary"]))
        if shape == "wild":
            continue
        if shape == "prefix":
            mask = mask_of_prefix(draw(st.integers(1, spec.width)), spec.width)
        elif shape == "exact":
            mask = spec.max_value
        else:
            mask = draw(st.integers(1, spec.max_value))
        fields[spec.name] = (draw(st.integers(0, spec.max_value)), mask)
    return FlowMatch(space, fields)


def _values(space):
    return st.tuples(*(st.integers(0, spec.max_value) for spec in space.specs))


@st.composite
def _table_ops(draw, space):
    kind = draw(st.sampled_from(["add"] * 3 + ["classify"] * 3
                                + ["remove", "remove_if", "clear"]))
    if kind == "add":
        return kind, FlowRule(draw(_matches(space)),
                              draw(st.sampled_from(_ACTIONS)),
                              priority=draw(st.integers(0, 2)))
    if kind == "classify":
        return kind, draw(_values(space)), draw(st.booleans())
    return kind, draw(st.integers(0, 64))


# three times the profile's examples: 300 in tier-1, 3000 under ``deep``
@settings(max_examples=3 * settings.default.max_examples)
@given(_spaces().flatmap(lambda space: st.tuples(
    st.just(space), st.lists(_table_ops(space), min_size=1, max_size=24))))
def test_the_compiled_walk_matches_the_per_rule_loop(script):
    """Rules change *between* classifications, so a plan that outlived
    its table version would answer for rules that are gone."""
    space, ops = script
    table = FlowTable(space)
    for kind, arg, *packed in ops:
        if kind == "add":
            table.add(arg)
        elif kind == "remove" and table.rules():
            table.remove(table.rules()[arg % len(table.rules())])
        elif kind == "remove_if":
            table.remove_if(lambda rule: rule.priority == arg % 3)
        elif kind == "clear":
            table.clear()
        elif kind == "classify":
            # half the keys arrive with their packed form cached
            key = FlowKey.from_tuple(space, arg,
                                     space.pack(arg) if packed[0] else None)
            got = classify_with_wildcards(table, key)
            want = oracles.classify_per_rule(table, key)
            assert got.rule is want.rule is table.lookup(key)
            assert got.rules_examined == want.rules_examined
            assert (got.megaflow.masks, got.megaflow.values) == \
                (want.megaflow.masks, want.megaflow.values)
            assert got.megaflow.packed == want.megaflow.packed


@settings(max_examples=200)
@given(_spaces().flatmap(lambda space: st.tuples(
    _matches(space), _matches(space), _values(space))))
def test_a_match_born_packed_is_the_match_built_from_tuples(drawn):
    """The slow path's megaflows are born packed and unpack on demand;
    everything that reads them must see the match the tuples build."""
    match, other, values = drawn
    space = match.space
    born = FlowMatch.from_packed(space, *match.packed)
    other_born = FlowMatch.from_packed(space, *other.packed)
    assert born == match and hash(born) == hash(match)
    assert repr(born) == repr(match)
    key = FlowKey.from_tuple(space, values)
    assert born.matches(key) == match.matches(key)
    assert born.covers(other_born) == match.covers(other)
    assert other_born.covers(born) == other.covers(match)
    assert overlaps(born, other_born) == overlaps(match, other)
    assert WildcardingResult(None, born, 0).prefix_lens == \
        WildcardingResult(None, match, 0).prefix_lens
