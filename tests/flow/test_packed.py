"""Tests for the packed-integer field layout (the TSS fast path's
foundation): pack/unpack round-trips, the mask-distributivity
identity the packed lookup relies on, and the two ways to build a
:class:`FlowKey` (from values, from its packed int) agreeing."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.fields import (
    OVS_FIELDS,
    FieldSpace,
    FieldSpec,
    toy_single_field_space,
)
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch


def _random_values(space):
    return st.tuples(*(st.integers(0, spec.max_value) for spec in space.specs))


class TestPackedLayout:
    def test_offsets_partition_total_bits(self):
        # field 0 at the most significant end, widths tile [0, total)
        offsets = OVS_FIELDS.offsets
        widths = [spec.width for spec in OVS_FIELDS.specs]
        assert offsets[0] + widths[0] == OVS_FIELDS.total_bits()
        for i in range(len(offsets) - 1):
            assert offsets[i] == offsets[i + 1] + widths[i + 1]
        assert offsets[-1] == 0

    def test_offset_of(self):
        assert OVS_FIELDS.offset_of("tp_dst") == 0
        assert OVS_FIELDS.offset_of("in_port") == OVS_FIELDS.offsets[0]

    @settings(max_examples=100, deadline=None)
    @given(_random_values(OVS_FIELDS))
    def test_pack_unpack_round_trip(self, values):
        assert OVS_FIELDS.unpack(OVS_FIELDS.pack(values)) == values

    @settings(max_examples=100, deadline=None)
    @given(_random_values(OVS_FIELDS), _random_values(OVS_FIELDS))
    def test_masking_distributes_over_packing(self, values, masks):
        """pack(v & m per field) == pack(v) & pack(m) — the identity that
        makes `packed_key & packed_mask` equivalent to the per-field
        tuple comprehension."""
        masked = tuple(v & m for v, m in zip(values, masks))
        assert OVS_FIELDS.pack(masked) == OVS_FIELDS.pack(values) & OVS_FIELDS.pack(masks)

    @settings(max_examples=100, deadline=None)
    @given(_random_values(OVS_FIELDS))
    def test_packed_orders_like_tuples(self, values):
        """Field 0 in the most significant bits makes int ordering match
        tuple ordering."""
        other = tuple(reversed(values))
        if values == other:
            return
        assert (OVS_FIELDS.pack(values) < OVS_FIELDS.pack(other)) == (values < other)


class TestFlowKeyPacked:
    def test_packed_matches_space_pack(self):
        key = FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": 0x0A000001})
        assert key.packed == OVS_FIELDS.pack(key.values)

    def test_packed_is_cached(self):
        """The ``packed`` slot starts unset on a values-built key, is
        filled by the first read, and is never packed again."""
        space = toy_single_field_space()
        calls = []
        pack = space.pack
        space.pack = lambda values: calls.append(values) or pack(values)
        key = FlowKey(space, {"ip_src": 42})
        slot = FlowKey.packed  # the slot descriptor: reads no fallback
        with pytest.raises(AttributeError):
            slot.__get__(key)
        first = key.packed
        assert slot.__get__(key) == first == 42
        assert key.packed == first
        assert calls == [(42,)]

    def test_values_are_derived_once(self):
        space = toy_single_field_space()
        calls = []
        unpack = space.unpack
        space.unpack = lambda packed: calls.append(packed) or unpack(packed)
        key = FlowKey.from_packed(space, 42)
        slot = FlowKey.values
        with pytest.raises(AttributeError):
            slot.__get__(key)
        assert key.values == (42,) == slot.__get__(key)
        assert key.values == (42,)
        assert calls == [42]

    def test_unknown_attribute_is_still_an_error(self):
        key = FlowKey.from_packed(toy_single_field_space(), 1)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            key.nope
        assert getattr(key, "__deepcopy__", None) is None

    def test_replace_recomputes(self):
        key = FlowKey(toy_single_field_space(), {"ip_src": 1})
        _ = key.packed
        other = key.replace(ip_src=2)
        assert other.packed != key.packed
        assert other.packed == 2


def _agree(a, b):
    """Every observable of two keys that should be the same key."""
    assert a == b and b == a
    assert not (a != b)
    assert hash(a) == hash(b)
    assert a.values == b.values and a.packed == b.packed
    assert list(a.items()) == list(b.items())
    assert repr(a) == repr(b)
    for spec in a.space.specs:
        assert a.get(spec.name) == b.get(spec.name)


class TestFromPacked:
    """A key built from its packed int is the key built from its
    values: same identity, same hash (so the same EMC placement), same
    fields, same copies."""

    @pytest.mark.parametrize(
        "space", [OVS_FIELDS, toy_single_field_space()], ids=["ovs", "toy"]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_both_constructions_agree(self, space, data):
        values = data.draw(_random_values(space))
        by_values = FlowKey.from_tuple(space, values)
        by_packed = FlowKey.from_packed(space, space.pack(values))
        _agree(by_values, by_packed)
        # a fresh packed-only key hashes before anything else reads it
        assert hash(FlowKey.from_packed(space, space.pack(values))) == hash(by_values)
        first = space.specs[0]
        _agree(by_values.replace(**{first.name: 0}),
               by_packed.replace(**{first.name: 0}))
        for key in (FlowKey.from_packed(space, space.pack(values)), by_values):
            _agree(pickle.loads(pickle.dumps(key)), by_values)
            _agree(copy.deepcopy(key), by_values)

    def test_unequal_spaces_never_match(self):
        one = FieldSpace([FieldSpec("a", 8)], name="one")
        other = FieldSpace([FieldSpec("b", 8)], name="other")
        assert FlowKey.from_packed(one, 5) != FlowKey.from_packed(other, 5)
        assert FlowKey.from_packed(one, 5) == FlowKey.from_tuple(
            FieldSpace([FieldSpec("a", 8)]), (5,)
        )


def test_a_match_built_elsewhere_packs_on_demand():
    space = FieldSpace([FieldSpec("a", 5), FieldSpec("b", 11)], name="two")
    match = FlowMatch(space, {"a": (0b10110, 0b11100), "b": (0x5A5, 0x7F0)})
    assert match.packed == (space.pack(match.masks), space.pack(match.values))
    born = FlowMatch.from_packed(space, *match.packed)
    assert (born.masks, born.values) == (match.masks, match.values)
