"""Unit and property tests for FlowKey and FlowMatch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch, MatchBuilder, port_range_to_prefixes
from repro.testing.predicates import is_exact, overlaps


class TestFlowKey:
    def test_defaults_zero_filled(self):
        key = FlowKey(OVS_FIELDS)
        assert all(v == 0 for v in key.values)

    def test_get_and_replace(self):
        key = FlowKey(OVS_FIELDS, {"ip_src": 0x0A000001, "tp_dst": 80})
        assert key.get("ip_src") == 0x0A000001
        replaced = key.replace(tp_dst=443)
        assert replaced.get("tp_dst") == 443
        assert key.get("tp_dst") == 80  # original untouched

    def test_value_bounds_checked(self):
        with pytest.raises(ValueError):
            FlowKey(OVS_FIELDS, {"ip_proto": 256})

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            FlowKey(OVS_FIELDS, {"vlan": 1})

    def test_hash_and_eq(self):
        a = FlowKey(OVS_FIELDS, {"ip_src": 1})
        b = FlowKey(OVS_FIELDS, {"ip_src": 1})
        assert a == b and hash(a) == hash(b)
        assert a != FlowKey(OVS_FIELDS, {"ip_src": 2})

    def test_from_tuple_validates_length(self):
        with pytest.raises(ValueError):
            FlowKey.from_tuple(OVS_FIELDS, (1, 2))

    def test_items_order(self):
        key = FlowKey(OVS_FIELDS, {"in_port": 3})
        names = [name for name, _ in key.items()]
        assert names[0] == "in_port"


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        match = FlowMatch.wildcard(OVS_FIELDS)
        assert match.is_wildcard()
        assert match.matches(FlowKey(OVS_FIELDS, {"ip_src": 0xDEADBEEF}))

    def test_exact_matches_only_its_key(self):
        key = FlowKey(OVS_FIELDS, {"ip_src": 5, "tp_dst": 80})
        match = FlowMatch.exact(OVS_FIELDS, key)
        assert is_exact(match)
        assert match.matches(key)
        assert not match.matches(key.replace(tp_dst=81))

    def test_prefix_match(self):
        match = MatchBuilder(OVS_FIELDS).ip_src_cidr("10.0.0.0/8").build()
        assert match.matches(FlowKey(OVS_FIELDS, {"ip_src": 0x0A123456}))
        assert not match.matches(FlowKey(OVS_FIELDS, {"ip_src": 0x0B000000}))

    def test_values_stored_premasked(self):
        match = FlowMatch(OVS_FIELDS, {"ip_src": (0x0A0000FF, 0xFF000000)})
        value, mask = match.field("ip_src")
        assert value == 0x0A000000  # host bits cleared

    def test_covers(self):
        broad = MatchBuilder(OVS_FIELDS).ip_src_cidr("10.0.0.0/8").build()
        narrow = MatchBuilder(OVS_FIELDS).ip_src_cidr("10.1.0.0/16").build()
        assert broad.covers(narrow)
        assert not narrow.covers(broad)
        assert FlowMatch.wildcard(OVS_FIELDS).covers(narrow)

    def test_overlaps(self):
        a = MatchBuilder(OVS_FIELDS).ip_src_cidr("10.0.0.0/8").build()
        b = MatchBuilder(OVS_FIELDS).field("tp_dst", 80).build()
        c = MatchBuilder(OVS_FIELDS).ip_src_cidr("11.0.0.0/8").build()
        assert overlaps(a, b) and overlaps(b, a)
        assert not overlaps(a, c)

    def test_specificity(self):
        match = FlowMatch(OVS_FIELDS, {"ip_src": (0, 0xFF000000), "tp_dst": (80, 0xFFFF)})
        assert match.specificity() == 8 + 16

    def test_builder_helpers(self):
        match = (
            MatchBuilder(OVS_FIELDS)
            .ip_src("10.0.0.10")
            .ip_dst("10.0.0.20")
            .field("ip_proto", 6)
            .prefix("tp_dst", 80, 16)
            .build()
        )
        key = FlowKey(
            OVS_FIELDS,
            {"ip_src": 0x0A00000A, "ip_dst": 0x0A000014, "ip_proto": 6, "tp_dst": 80},
        )
        assert match.matches(key)


@st.composite
def match_and_keys(draw):
    space = toy_single_field_space()
    mask = draw(st.integers(0, 255))
    value = draw(st.integers(0, 255))
    match = FlowMatch(space, {"ip_src": (value, mask)})
    key = FlowKey(space, {"ip_src": draw(st.integers(0, 255))})
    return match, key


class TestMatchProperties:
    @given(match_and_keys())
    def test_match_definition(self, pair):
        match, key = pair
        value, mask = match.field("ip_src")
        assert match.matches(key) == (key.get("ip_src") & mask == value)

    @given(match_and_keys(), match_and_keys())
    def test_covers_implies_match_subset(self, pair_a, pair_b):
        a, key = pair_a
        b, _ = pair_b
        if a.covers(b) and b.matches(key):
            assert a.matches(key)

    @given(match_and_keys(), match_and_keys())
    def test_disjoint_means_no_common_key(self, pair_a, pair_b):
        a, key = pair_a
        b, _ = pair_b
        if not overlaps(a, b):
            assert not (a.matches(key) and b.matches(key))


class TestPortRangeToPrefixes:
    def test_single_port(self):
        assert port_range_to_prefixes(80, 80) == [(80, 0xFFFF)]

    def test_paper_style_pair(self):
        # an aligned pair collapses to one /15-style prefix
        assert port_range_to_prefixes(80, 81) == [(80, 0xFFFE)]

    def test_full_range(self):
        assert port_range_to_prefixes(0, 65535) == [(0, 0)]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            port_range_to_prefixes(10, 5)
        with pytest.raises(ValueError):
            port_range_to_prefixes(0, 70000)

    @given(st.integers(0, 65535), st.integers(0, 65535))
    def test_decomposition_is_exact_partition(self, a, b):
        low, high = min(a, b), max(a, b)
        if high - low > 2048:  # keep membership check affordable
            high = low + 2048
        prefixes = port_range_to_prefixes(low, high)
        # spot-check membership at the edges and a few interior points
        for port in {low, high, (low + high) // 2, max(low - 1, 0), min(high + 1, 65535)}:
            inside = low <= port <= high
            covered = sum(1 for value, mask in prefixes if port & mask == value)
            assert covered == (1 if inside else 0)
