"""Tests for the packed-integer field layout (the TSS fast path's
foundation): pack/unpack round-trips and the mask-distributivity
identity the packed lookup relies on."""

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
        key = FlowKey(toy_single_field_space(), {"ip_src": 42})
        assert key._packed is None
        first = key.packed
        assert key._packed == first
        assert key.packed == first

    def test_replace_recomputes(self):
        key = FlowKey(toy_single_field_space(), {"ip_src": 1})
        _ = key.packed
        other = key.replace(ip_src=2)
        assert other.packed != key.packed
        assert other.packed == 2


def test_a_match_built_elsewhere_packs_on_demand():
    space = FieldSpace([FieldSpec("a", 5), FieldSpec("b", 11)], name="two")
    match = FlowMatch(space, {"a": (0b10110, 0b11100), "b": (0x5A5, 0x7F0)})
    assert match.packed == (space.pack(match.masks), space.pack(match.values))
    born = FlowMatch.from_packed(space, *match.packed)
    assert (born.masks, born.values) == (match.masks, match.values)
