"""Tests for the TSS hot-path work: packed keys and pvector-style
subtable ranking.

The equivalence property: ranked and insertion-order lookups, on packed
keys and on the per-field tuple-keyed oracle, must return identical
entries — and, before any re-sort, identical
``tuples_scanned``/``hash_probes`` accounting — for randomized
non-overlapping rule sets (OVS's megaflow invariant)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.ovs.switch import OvsSwitch
from repro.ovs.tss import TupleSpaceSearch
from repro.flow.actions import Allow, Drop
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.testing.oracles import TupleKeyedSearch
from repro.util.bits import mask_of_prefix

ALL_MODES = [
    (TupleKeyedSearch, "insertion"),
    (TupleSpaceSearch, "insertion"),
    (TupleKeyedSearch, "ranked"),
    (TupleSpaceSearch, "ranked"),
]


def _disjoint_regions(raw_entries):
    """Greedily accept pairwise non-overlapping (mask, value) regions."""
    regions = []
    for prefix_len, value in raw_entries:
        mask = mask_of_prefix(prefix_len, 8)
        masked = value & mask
        if any(
            masked & (mask & m2) == v2 & (mask & m2) for m2, v2 in regions
        ):
            continue
        regions.append((mask, masked))
    return regions


class TestModeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 255)),
            min_size=1,
            max_size=24,
        ),
        st.lists(st.integers(0, 255), min_size=1, max_size=16),
    )
    def test_all_modes_agree_probe_for_probe(self, raw_entries, probes):
        """Same entries, same scan accounting, across both key
        representations and scan orders (ranked starts in insertion
        order until a re-sort)."""
        space = toy_single_field_space()
        regions = _disjoint_regions(raw_entries)
        searches = [search(space, scan_order=scan_order)
                    for search, scan_order in ALL_MODES]
        for mask, masked in regions:
            for tss in searches:
                tss.insert(mask, masked, (mask, masked))
        for probe in probes:
            key = FlowKey(space, {"ip_src": probe})
            results = [tss.lookup(key) for tss in searches]
            reference = results[0]
            for result in results[1:]:
                assert result.entry == reference.entry
                assert result.tuples_scanned == reference.tuples_scanned
                assert result.hash_probes == reference.hash_probes
        totals = {
            (t.total_lookups, t.total_tuples_scanned, t.total_hash_probes)
            for t in searches
        }
        assert len(totals) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 255)),
            min_size=2,
            max_size=24,
        ),
        st.lists(st.integers(0, 255), min_size=4, max_size=24),
    )
    def test_resorted_ranked_returns_identical_entries(self, raw_entries, probes):
        """After re-sorting (here every third lookup), ranked may scan
        fewer subtables but must still return exactly the same entry
        for every key."""
        space = toy_single_field_space()
        regions = _disjoint_regions(raw_entries)
        insertion = TupleSpaceSearch(space, scan_order="insertion")
        ranked = TupleSpaceSearch(space, scan_order="ranked")
        for mask, masked in regions:
            insertion.insert(mask, masked, (mask, masked))
            ranked.insert(mask, masked, (mask, masked))
        for n, probe in enumerate(probes, start=1):
            key = FlowKey(space, {"ip_src": probe})
            assert ranked.lookup(key).entry == insertion.lookup(key).entry
            if n % 3 == 0:
                ranked.resort()

    @pytest.mark.parametrize("scan_order", ["insertion", "ranked"])
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 255)),
            min_size=2,
            max_size=24,
        ),
        st.lists(st.lists(st.integers(0, 255), min_size=1, max_size=8),
                 min_size=1, max_size=4),
    )
    def test_bursts_agree_with_the_oracle(self, scan_order, raw_entries,
                                          bursts):
        """``lookup_batch`` answers every burst as the tuple-keyed
        oracle's key-major scan does — same prefix, entries and
        accounting — with a subtable destroyed and the pvector
        re-sorted between bursts."""
        space = toy_single_field_space()
        regions = _disjoint_regions(raw_entries)
        searches = [search(space, scan_order=scan_order)
                    for search in (TupleSpaceSearch, TupleKeyedSearch)]
        for mask, masked in regions:
            for tss in searches:
                tss.insert(mask, masked, (mask, masked))
        for i, burst in enumerate(bursts):
            keys = [FlowKey(space, {"ip_src": probe}) for probe in burst]
            packed, oracle = ([(r.entry, r.tuples_scanned, r.hash_probes)
                               for r in tss.lookup_batch(keys)]
                              for tss in searches)
            assert packed == oracle and packed
            for tss in searches:
                if i < len(regions):
                    tss.remove(*regions[i])
                tss.resort()
            assert len({(t.total_lookups, t.total_tuples_scanned,
                         t.total_hash_probes, t.resorts, t.mask_count)
                        for t in searches}) == 1


class TestRanking:
    def _two_table_tss(self):
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space, scan_order="ranked")
        tss.insert(0xF0, 0x20, "cold")  # created first: scanned first
        tss.insert(0xFF, 0x01, "hot")
        return space, tss

    def test_resort_promotes_hot_subtable(self):
        space, tss = self._two_table_tss()
        hot_key = FlowKey(space, {"ip_src": 0x01})
        # before any resort: insertion order, the hot hit scans 2
        assert tss.lookup(hot_key).tuples_scanned == 2
        for _ in range(10):
            tss.lookup(hot_key)
        tss.resort()
        assert tss.lookup(hot_key).tuples_scanned == 1
        # and the cold entry is still found (now at position 2)
        assert tss.lookup(FlowKey(space, {"ip_src": 0x25})).entry == "cold"

    def test_resort_decays_rank_counters(self):
        space, tss = self._two_table_tss()
        hot = tss.find_subtable(0xFF)
        hot_key = FlowKey(space, {"ip_src": 0x01})
        for _ in range(8):
            tss.lookup(hot_key)
        assert hot.rank_hits == 8
        tss.resort()
        assert hot.rank_hits == 4  # halved: ranking tracks recent rate
        assert hot.hits == 8  # cumulative stats untouched

    def test_resort_is_noop_for_other_orders(self):
        tss = TupleSpaceSearch(toy_single_field_space(), scan_order="insertion")
        tss.insert(0xFF, 0x01, "e")
        tss.resort()
        assert tss.resorts == 0

    def test_destroyed_subtables_leave_the_scan(self):
        space, tss = self._two_table_tss()
        tss.remove(0xF0, 0x20)
        result = tss.lookup(FlowKey(space, {"ip_src": 0x01}))
        assert result.entry == "hot"
        assert result.tuples_scanned == 1  # the dead subtable is gone
        miss = tss.lookup(FlowKey(space, {"ip_src": 0x99}))
        assert miss.tuples_scanned == tss.mask_count == 1

    def test_revalidator_sweep_triggers_resort(self):
        space = toy_single_field_space()
        switch = OvsSwitch(space=space, scan_order="ranked")
        switch.add_rules(
            [
                FlowRule(FlowMatch(space, {"ip_src": (0x0A, 0xFF)}), Allow(),
                         priority=10),
                FlowRule(FlowMatch.wildcard(space), Drop(), priority=0),
            ]
        )
        switch.process(FlowKey(space, {"ip_src": 0x0A}), now=0.0)
        switch.advance_clock(1.0)  # a due sweep re-ranks the pvector
        assert switch.megaflow.tss.resorts >= 1

    def test_expected_scan_depth_uniform_and_skewed(self):
        space, tss = self._two_table_tss()
        # no hits yet: the unordered convention (n+1)/2
        assert tss.expected_scan_depth() == pytest.approx(1.5)
        hot_key = FlowKey(space, {"ip_src": 0x01})
        for _ in range(20):
            tss.lookup(hot_key)
        tss.lookup(FlowKey(space, {"ip_src": 0x25}))  # one cold hit
        tss.resort()
        # hot (21-ish hits) ranks first: depth collapses toward 1
        assert tss.expected_scan_depth() < 1.5


class TestPackedKeys:
    def test_insert_remove_by_packed_key(self):
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space)
        tss.insert(0xF0, 0x10, "a")
        tss.insert(0xF0, 0x20, "b")
        subtable = tss.find_subtable(0xF0)
        assert subtable.masks == (0xF0,)
        assert dict(subtable.items()) == {0x10: "a", 0x20: "b"}
        tss.remove(0xF0, 0x10)
        assert list(tss.iter_entries()) == [(0xF0, 0x20, "b")]
        assert tss.lookup(FlowKey(space, {"ip_src": 0x2F})).entry == "b"
        assert not tss.lookup(FlowKey(space, {"ip_src": 0x1F})).hit

    def test_the_oracle_takes_packed_keys_and_holds_tuples(self):
        space = OVS_FIELDS
        oracle = TupleKeyedSearch(space)
        masks = (0, 0xFFFF, 0xFFFFFFFF, 0, 0, 0, 0xFFFF)
        values = (0, 0x0800, 0x0A000001, 0, 0, 0, 80)
        oracle.insert(space.pack(masks), space.pack(values), "e")
        subtable = oracle.find_subtable(space.pack(masks))
        assert list(subtable.entries) == [values]
        assert list(oracle.iter_entries()) == [
            (space.pack(masks), space.pack(values), "e")]
        key = FlowKey(space, {"eth_type": 0x0800, "ip_src": 0x0A000001,
                              "ip_proto": 6, "tp_dst": 80})
        assert oracle.lookup(key).entry == "e"


class TestSwitchLevelEquivalence:
    """End to end over the multi-field OVS space: a packed switch and
    one scanning the tuple-keyed oracle see identical verdicts, paths
    and scan accounting."""

    def _switch(self, search):
        switch = OvsSwitch(space=OVS_FIELDS)
        switch.megaflow.tss = search(OVS_FIELDS)
        switch.add_rules(
            [
                FlowRule(
                    FlowMatch(OVS_FIELDS, {"ip_src": (0x0A000000, 0xFF000000),
                                           "tp_dst": (80, 0xFFFF)}),
                    Allow(),
                    priority=10,
                ),
                FlowRule(FlowMatch.wildcard(OVS_FIELDS), Drop(), priority=0),
            ]
        )
        return switch

    def test_same_traffic_same_results(self):
        packed = self._switch(TupleSpaceSearch)
        tuple_ref = self._switch(TupleKeyedSearch)
        keys = [
            FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": ip, "tp_dst": port})
            for ip in (0x0A000001, 0x0A000002, 0x0B000001)
            for port in (80, 443)
        ] * 2  # the repeat exercises cache hits on both paths
        for key in keys:
            a = packed.process(key)
            b = tuple_ref.process(key)
            assert a.action.kind == b.action.kind
            assert a.path == b.path
            assert a.tuples_scanned == b.tuples_scanned
            assert a.hash_probes == b.hash_probes
        assert packed.stats.snapshot() == tuple_ref.stats.snapshot()
        assert packed.mask_count == tuple_ref.mask_count
