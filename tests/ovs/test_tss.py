"""Tests for tuple space search — the structure the attack exploits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.ovs.tss import DEFAULT_STAGES, TupleSpaceSearch
from repro.testing.oracles import TupleKeyedSearch
from repro.util.bits import mask_of_prefix


def _single_field_tss(**kwargs):
    return TupleSpaceSearch(toy_single_field_space(), **kwargs)


class TestStructure:
    def test_one_subtable_per_mask(self):
        tss = _single_field_tss()
        tss.insert(0xF0, 0x10, "a")
        tss.insert(0xF0, 0x20, "b")
        tss.insert(0xFF, 0x33, "c")
        assert tss.mask_count == 2
        assert tss.entry_count == 3

    def test_empty_subtable_disappears(self):
        tss = _single_field_tss()
        tss.insert(0xF0, 0x10, "a")
        tss.remove(0xF0, 0x10)
        assert tss.mask_count == 0

    def test_remove_unknown_mask_rejected(self):
        tss = _single_field_tss()
        with pytest.raises(KeyError):
            tss.remove(0xAA, 0xAA)

    def test_insert_replaces(self):
        tss = _single_field_tss()
        tss.insert(0xFF, 0x01, "old")
        tss.insert(0xFF, 0x01, "new")
        assert tss.entry_count == 1
        assert tss.lookup(FlowKey(toy_single_field_space(), {"ip_src": 1})).entry == "new"

    def test_remove_if(self):
        tss = _single_field_tss()
        tss.insert(0xFF, 0x01, "keep")
        tss.insert(0xFF, 0x02, "drop")
        assert tss.remove_if(lambda e: e == "drop") == 1
        assert tss.entry_count == 1


def _two_mask_tss(scan_order):
    tss = _single_field_tss(scan_order=scan_order)
    tss.insert(0xF0, 0x10, "a")
    tss.insert(0xF0, 0x20, "b")
    tss.insert(0xFF, 0x33, "c")
    return tss


#: write -> (scan order, the write, whether it may change what a scan
#: answers — then it, and only then, advances ``generation``)
_WRITES = {
    "insert": ("insertion", lambda tss: tss.insert(0xF0, 0x30, "d"), True),
    "insert-new-mask": ("insertion",
                        lambda tss: tss.insert(0xFC, 0x44, "d"), True),
    "replace": ("insertion", lambda tss: tss.insert(0xF0, 0x10, "a2"), True),
    "remove": ("insertion", lambda tss: tss.remove(0xF0, 0x10), True),
    "remove-last-of-mask": ("ranked", lambda tss: tss.remove(0xFF, 0x33),
                            True),
    "clear": ("insertion", lambda tss: tss.clear(), True),
    "ranked-resort": ("ranked", lambda tss: tss.resort(), True),
    "insertion-resort": ("insertion", lambda tss: tss.resort(), False),
    "lookup-batch": ("ranked", lambda tss: tss.lookup_batch(
        [FlowKey(toy_single_field_space(), {"ip_src": 0x33})]), False),
}


class TestGeneration:
    """``generation`` stamps what a scan would answer: whatever is
    derived from the tables (the columnar mirror, a burst memo) is
    valid exactly while its stamp is current."""

    @pytest.mark.parametrize("write", sorted(_WRITES))
    def test_advances_on_every_write_a_scan_can_see(self, write):
        scan_order, apply, advances = _WRITES[write]
        tss = _two_mask_tss(scan_order)
        before = tss.generation
        apply(tss)
        assert tss.generation == before + advances

    def test_a_failed_remove_leaves_it(self):
        tss = _two_mask_tss("insertion")
        before = tss.generation
        with pytest.raises(KeyError):
            tss.remove(0xAA, 0xAA)
        assert tss.generation == before


class TestLookup:
    def test_hit_and_scan_count(self):
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space)
        # install Fig. 2b-style masks in prefix-length order
        for length in range(1, 9):
            mask = mask_of_prefix(length, 8)
            tss.insert(mask, 0, f"prefix{length}")
        # key 0 matches the first subtable scanned
        result = tss.lookup(FlowKey(space, {"ip_src": 0}))
        assert result.hit
        assert result.tuples_scanned == 1

    def test_miss_scans_all_subtables(self):
        # "the TSS algorithm still has to iterate through all hashes"
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space)
        for length in range(1, 9):
            tss.insert(mask_of_prefix(length, 8), 0b10000000, length)
        result = tss.lookup(FlowKey(space, {"ip_src": 0b01111111}))
        assert not result.hit
        assert result.tuples_scanned == 8
        assert result.hash_probes == 8

    def test_insertion_scan_order(self):
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space, scan_order="insertion")
        tss.insert(0x80, 0x80, "first")
        tss.insert(0xFF, 0x81, "second")
        # key 0x81 matches both subtables' regions; first-created wins
        result = tss.lookup(FlowKey(space, {"ip_src": 0x81}))
        assert result.entry == "first"

    def test_bad_scan_order_rejected(self):
        # "hits" was a third order once; it is unknown like any other
        # name, and the error lists the valid ones
        for order in ("random", "hits"):
            with pytest.raises(ValueError, match="insertion.*ranked"):
                TupleSpaceSearch(toy_single_field_space(), scan_order=order)

    def test_cumulative_statistics(self):
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space)
        tss.insert(0xFF, 1, "e")
        tss.lookup(FlowKey(space, {"ip_src": 1}))
        tss.lookup(FlowKey(space, {"ip_src": 2}))
        assert tss.total_lookups == 2
        assert tss.total_tuples_scanned == 2


class TestLinearScanCost:
    """The algorithmic-complexity core: lookup cost grows linearly."""

    def test_scan_grows_with_mask_count(self):
        space = OVS_FIELDS
        tss = TupleSpaceSearch(space)
        probes = []
        miss_key = FlowKey(space, {"ip_src": 0xFFFFFFFF})
        for n in (1, 64, 512):
            while tss.mask_count < n:
                i = tss.mask_count
                mask = (0, 0, mask_of_prefix(i % 32 + 1, 32), 0, 0, 0, i + 1)
                tss.insert(space.pack(mask), 0, i)
            probes.append(tss.lookup(miss_key).tuples_scanned)
        assert probes == [1, 64, 512]


class TestStagedLookup:
    def test_staged_finds_same_entries(self):
        space = OVS_FIELDS
        plain = TupleSpaceSearch(space, staged=False)
        staged = TupleSpaceSearch(space, staged=True)
        entries = [
            ((0, 0xFFFF, 0xFF000000, 0, 0, 0, 0), (0, 0x0800, 0x0A000000, 0, 0, 0, 0)),
            ((0, 0xFFFF, 0, 0, 0, 0, 0xFFFF), (0, 0x0800, 0, 0, 0, 0, 80)),
        ]
        for masks, values in entries:
            for tss in (plain, staged):
                tss.insert(space.pack(masks), space.pack(values), (masks, values))
        for ip_src, tp_dst in [(0x0A000001, 443), (0x0B000000, 80), (0, 0)]:
            key = FlowKey(space, {"eth_type": 0x0800, "ip_src": ip_src, "tp_dst": tp_dst})
            assert plain.lookup(key).entry == staged.lookup(key).entry

    def test_staged_aborts_early_on_l2_mismatch(self):
        space = OVS_FIELDS
        staged = TupleSpaceSearch(space, staged=True)
        masks = (0, 0xFFFF, 0xFFFFFFFF, 0, 0, 0, 0)
        values = (0, 0x0800, 0x0A000001, 0, 0, 0, 0)
        staged.insert(space.pack(masks), space.pack(values), "entry")
        # wrong eth_type: the scan must abort after the L2 stage probe,
        # i.e. with fewer probes than the full stage count
        miss = staged.lookup(FlowKey(space, {"eth_type": 0x0806}))
        assert not miss.hit
        hit = staged.lookup(FlowKey(space, {"eth_type": 0x0800, "ip_src": 0x0A000001}))
        assert hit.hit
        assert miss.hash_probes < hit.hash_probes

    def test_staged_remove_keeps_index_consistent(self):
        space = OVS_FIELDS
        staged = TupleSpaceSearch(space, staged=True)
        masks = space.pack((0, 0xFFFF, 0, 0, 0, 0, 0xFFFF))
        staged.insert(masks, space.pack((0, 0x0800, 0, 0, 0, 0, 80)), "a")
        staged.insert(masks, space.pack((0, 0x0800, 0, 0, 0, 0, 81)), "b")
        staged.remove(masks, space.pack((0, 0x0800, 0, 0, 0, 0, 80)))
        assert staged.lookup(
            FlowKey(space, {"eth_type": 0x0800, "tp_dst": 81})
        ).entry == "b"
        assert not staged.lookup(
            FlowKey(space, {"eth_type": 0x0800, "tp_dst": 80})
        ).hit


#: one OVS-space subtable per row, as (masks, values): an in_port
#: match, an L2 + L3 prefix, an L2 + L4 port, and every stage at once
_STAGED_SUBTABLES = {
    "port": ((0xFFFF, 0, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0, 0)),
    "l2-l3": ((0, 0xFFFF, 0xFFFFFF00, 0, 0, 0, 0),
              (0, 0x0800, 0x0A000100, 0, 0, 0, 0)),
    "l2-l4": ((0, 0xFFFF, 0, 0, 0, 0, 0xFFFF), (0, 0x0800, 0, 0, 0, 0, 80)),
    "every-stage": ((0xFFFF, 0xFFFF, 0, 0xFFFFFFFF, 0xFF, 0, 0xFFFF),
                    (1, 0x0800, 0, 0x0A000909, 6, 0, 443)),
}


def _stage_fields():
    """Per stage of the OVS space, the positions of its fields."""
    return [tuple(OVS_FIELDS.index_of(name) for name in names
                  if name in OVS_FIELDS)
            for names in DEFAULT_STAGES]


def _staged_pair():
    """A staged packed search and the staged tuple-keyed oracle, both
    holding every row of ``_STAGED_SUBTABLES``."""
    searches = (TupleSpaceSearch(OVS_FIELDS, staged=True),
                TupleKeyedSearch(OVS_FIELDS, staged=True))
    for name, (masks, values) in _STAGED_SUBTABLES.items():
        for tss in searches:
            tss.insert(OVS_FIELDS.pack(masks), OVS_FIELDS.pack(values), name)
    return searches


class TestPackedStageIndex:
    """A stage index keys on the packed key under the subtable's mask
    cut down to the stage's fields — the packed image of the partial
    tuples the tuple-keyed oracle compares, so both probe alike."""

    @pytest.mark.parametrize("name", list(_STAGED_SUBTABLES))
    def test_each_stage_keys_on_its_own_fields(self, name):
        masks, values = _STAGED_SUBTABLES[name]
        tss = TupleSpaceSearch(OVS_FIELDS, staged=True)
        tss.insert(OVS_FIELDS.pack(masks), OVS_FIELDS.pack(values), name)
        subtable = tss.find_subtable(OVS_FIELDS.pack(masks))

        def cut(row, fields):
            return OVS_FIELDS.pack(tuple(
                v if i in fields else 0 for i, v in enumerate(row)))

        stages = _stage_fields()
        assert subtable._stage_masks == tuple(
            cut(masks, fields) for fields in stages)
        assert subtable._stage_index == [
            {cut(values, fields)} for fields in stages]

    @pytest.mark.parametrize("fields, entry, probes", [
        ({"in_port": 3, "eth_type": 0x0806}, "port", 4),
        ({"eth_type": 0x0800, "ip_src": 0x0A000105}, "l2-l3", 5),
        ({"eth_type": 0x0800, "ip_src": 0x0B000000, "tp_dst": 80},
         "l2-l4", 8),
        ({"in_port": 1, "eth_type": 0x0800, "ip_dst": 0x0A000909,
          "ip_proto": 6, "tp_dst": 443}, "every-stage", 12),
        ({"in_port": 1, "eth_type": 0x0800, "ip_dst": 0x0A000909,
          "ip_proto": 17, "tp_dst": 443}, None, 11),
        ({"eth_type": 0x86DD}, None, 6),
    ], ids=["port", "l3-prefix", "l4-port", "every-stage", "miss-at-l3",
            "miss-at-l2"])
    def test_probes_match_the_tuple_keyed_oracle(self, fields, entry, probes):
        key = FlowKey(OVS_FIELDS, fields)
        packed, oracle = (tss.lookup(key) for tss in _staged_pair())
        assert (packed.entry, packed.tuples_scanned, packed.hash_probes) == (
            oracle.entry, oracle.tuples_scanned, oracle.hash_probes)
        assert (packed.entry, packed.hash_probes) == (entry, probes)

    @pytest.mark.parametrize("gone", range(3))
    def test_a_removed_key_leaves_no_stale_stage_key(self, gone):
        """Each entry has an L3 partial of its own: once it is removed
        its key aborts at the L3 stage, as the oracle's does, and is
        not let through to the L4 stage by a stale partial."""
        space = OVS_FIELDS
        mask = space.pack((0, 0xFFFF, 0, 0xFFFFFFFF, 0, 0, 0xFFFF))
        rows = [(0, 0x0800, 0, ip_dst, 0, 0, port)
                for ip_dst, port in ((1, 80), (2, 80), (3, 81))]
        searches = (TupleSpaceSearch(space, staged=True),
                    TupleKeyedSearch(space, staged=True))
        for tss in searches:
            for i, row in enumerate(rows):
                tss.insert(mask, space.pack(row), i)
        key = FlowKey.from_tuple(space, rows[gone])
        assert all(tss.lookup(key).entry == gone for tss in searches)
        for tss in searches:
            tss.remove(mask, space.pack(rows[gone]))
        packed, oracle = (tss.lookup(key) for tss in searches)
        assert not packed.hit
        assert packed.hash_probes == oracle.hash_probes == 3


class TestNonOverlapInvariant:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 255)), min_size=1, max_size=20),
           st.integers(0, 255))
    def test_first_match_unique_for_disjoint_entries(self, raw_entries, probe):
        """When entries are pairwise non-overlapping (as OVS guarantees),
        at most one subtable can match any key, so scan order cannot
        change the *result*, only the cost."""
        space = toy_single_field_space()
        tss = TupleSpaceSearch(space)
        regions = []
        for prefix_len, value in raw_entries:
            mask = mask_of_prefix(prefix_len, 8)
            masked = value & mask
            if any(
                (masked & m2 == v2 & m2) or (v2 & mask == masked)
                for m2, v2 in regions
                for m2, v2 in [(m2, v2)]
                if (masked & min(mask, m2)) == (v2 & min(mask, m2))
            ):
                continue  # skip overlapping candidates
            # precise disjointness check against every accepted region
            overlap = False
            for m2, v2 in regions:
                common = mask & m2
                if masked & common == v2 & common:
                    overlap = True
                    break
            if overlap:
                continue
            regions.append((mask, masked))
            tss.insert(mask, masked, (mask, masked))
        key = FlowKey(space, {"ip_src": probe})
        matching = [
            (m, v) for m, v in regions if probe & m == v
        ]
        result = tss.lookup(key)
        if matching:
            assert result.hit and result.entry in matching
        else:
            assert not result.hit


class TestLazyStageRebuild:
    """Subtable.remove must only mark the stage index dirty; the rebuild
    happens once, on the next staged lookup (regression: it used to
    rebuild O(entries x stages) eagerly on every removal)."""

    def _staged_single_field(self):
        tss = TupleSpaceSearch(toy_single_field_space(), staged=True)
        for value in (0x10, 0x20, 0x30):
            tss.insert(0xF0, value, f"e{value:x}")
        return tss, tss.find_subtable(0xF0)

    def test_remove_defers_rebuild(self):
        _tss, subtable = self._staged_single_field()
        subtable.remove(0x20)
        # no eager rebuild: the removed entry's partial key is stale
        assert subtable._stage_dirty
        assert 0x20 in subtable._stage_index[0]

    def test_lookup_rebuilds_once_and_is_correct(self):
        tss, subtable = self._staged_single_field()
        subtable.remove(0x20)
        space = toy_single_field_space()
        # the removed entry no longer matches...
        assert not tss.lookup(FlowKey(space, {"ip_src": 0x25})).hit
        # ...the rebuild ran exactly once, dropping the stale partial
        assert not subtable._stage_dirty
        assert 0x20 not in subtable._stage_index[0]
        # ...and surviving entries still match
        assert tss.lookup(FlowKey(space, {"ip_src": 0x11})).entry == "e10"

    def test_bulk_removal_pays_one_rebuild(self, monkeypatch):
        tss, subtable = self._staged_single_field()
        rebuilds = []
        original = type(subtable)._rebuild_stage_index

        def counting(self):
            rebuilds.append(1)
            return original(self)

        monkeypatch.setattr(type(subtable), "_rebuild_stage_index", counting)
        subtable.remove(0x10)
        subtable.remove(0x20)
        assert rebuilds == []  # removals are free
        tss.lookup(FlowKey(toy_single_field_space(), {"ip_src": 0x35}))
        assert len(rebuilds) == 1  # one rebuild for the whole burst

    def test_insert_while_dirty_is_covered_by_rebuild(self):
        tss, subtable = self._staged_single_field()
        subtable.remove(0x20)
        tss.insert(0xF0, 0x40, "e40")
        assert subtable._stage_dirty  # insert does not clear the debt
        space = toy_single_field_space()
        assert tss.lookup(FlowKey(space, {"ip_src": 0x42})).entry == "e40"
        assert not subtable._stage_dirty

    def test_staged_scan_still_counts_probes(self):
        tss, subtable = self._staged_single_field()
        subtable.remove(0x30)
        result = tss.lookup(FlowKey(toy_single_field_space(), {"ip_src": 0x11}))
        assert result.hit
        assert result.hash_probes >= 1
