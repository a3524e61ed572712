"""Tests for the megaflow cache lifecycle and the microflow cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow, Drop
from repro.flow.fields import OVS_FIELDS, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import CacheFullError, MegaflowCache, MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.util.rng import DeterministicRng


def _stored(cache, key):
    """Whether any slot of ``cache``, live or stale, stores ``key``."""
    return any(slot.key == key for bucket in cache._sets for slot in bucket)


def _match(space, value, mask=0xFF):
    return FlowMatch(space, {"ip_src": (value, mask)})


class TestMegaflowCache:
    def test_insert_and_lookup(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        cache.insert(_match(space, 5), Allow(), now=0.0)
        result = cache.lookup(FlowKey(space, {"ip_src": 5}), now=1.0)
        assert result.hit
        assert result.entry.hits == 1
        assert result.entry.last_used == 1.0

    def test_flow_limit_enforced(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space, flow_limit=2)
        cache.insert(_match(space, 1), Allow())
        cache.insert(_match(space, 2), Allow())
        with pytest.raises(CacheFullError):
            cache.insert(_match(space, 3), Allow())
        assert cache.rejected_inserts == 1

    def test_replacement_does_not_count_against_limit(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space, flow_limit=1)
        first = cache.insert(_match(space, 1), Allow())
        second = cache.insert(_match(space, 1), Drop())
        assert not first.alive
        assert second.alive
        assert cache.entry_count == 1

    @pytest.mark.parametrize("staged", [False, True], ids=["plain", "staged"])
    @pytest.mark.parametrize("scan_order", ["insertion", "ranked"])
    def test_a_reinstall_is_found_by_its_packed_key(self, staged, scan_order):
        """A flow mod for a cached (mask, key) finds the old entry under
        the packed masked key — the mask and the key differ here, so a
        probe under the packed mask would miss it — and replaces it."""
        space = OVS_FIELDS
        cache = MegaflowCache(space, flow_limit=2, staged=staged,
                              scan_order=scan_order)

        def match():
            return FlowMatch(space, {"eth_type": (0x0800, 0xFFFF),
                                     "ip_dst": (0x0A000100, 0xFFFFFF00)})

        cache.insert(FlowMatch(space, {"tp_dst": (80, 0xFFFF)}), Allow())
        first = cache.insert(match(), Allow(), now=1.0)
        second = cache.insert(match(), Drop(), now=2.0)
        assert not first.alive and second.alive
        assert (cache.entry_count, cache.mask_count) == (2, 2)
        key = FlowKey(space, {"eth_type": 0x0800, "ip_dst": 0x0A000107})
        assert cache.lookup(key, now=3.0).entry is second
        third = cache.insert(match(), Allow(), now=4.0)  # at the limit
        assert not second.alive and third.alive

    def test_idle_expiry_at_10s_default(self):
        # the revalidator default the attack must outpace
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        assert cache.idle_timeout == 10.0
        entry = cache.insert(_match(space, 1), Allow(), now=0.0)
        assert cache.expire_idle(now=9.0) == 0
        assert cache.expire_idle(now=10.5) == 1
        assert not entry.alive
        assert cache.entry_count == 0

    def test_touch_defers_expiry(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        cache.insert(_match(space, 1), Allow(), now=0.0)
        cache.lookup(FlowKey(space, {"ip_src": 1}), now=8.0)  # refresh
        assert cache.expire_idle(now=12.0) == 0  # idle only 4s
        assert cache.expire_idle(now=19.0) == 1

    def test_a_stamp_back_to_the_clock_after_a_sweep_is_seen(self):
        """An entry refreshed ahead of the clock (the simulator's
        ``refresh(t_next)``) survives a sweep, then an EMC hit stamps it
        back to the clock, which lowers no floor: the sweep's re-derived
        floor is capped at its own time, so the entry still falls due."""
        space = toy_single_field_space()
        cache = MegaflowCache(space, idle_timeout=4.0)
        entry = cache.insert(_match(space, 1), Allow(), now=0.0)
        entry.refresh(6.0)
        assert cache.expire_idle(now=5.0) == 0
        entry.touch(5.0)
        assert cache.expire_idle(now=9.5) == 1

    def test_evict_tenant(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        cache.insert(_match(space, 1), Allow(), tenant="mallory")
        cache.insert(_match(space, 2), Allow(), tenant="alice")
        assert cache.evict_tenant("mallory") == 1
        remaining = cache.entries()
        assert [e.tenant for e in remaining] == ["alice"]

    def test_flush(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        entry = cache.insert(_match(space, 1), Allow())
        cache.flush()
        assert cache.entry_count == 0
        assert not entry.alive

    def test_remove_entry_of_a_replaced_entry_leaves_the_live_one(self):
        # regression: removal went by (mask, key), so evicting the stale
        # e1 deleted e2 from the tuple space and left e2.alive == True —
        # the EMC kept serving a megaflow that was no longer cached
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        e1 = cache.insert(_match(space, 1), Allow())
        e2 = cache.insert(_match(space, 1), Drop())
        cache.remove_entry(e1)
        assert not e1.alive and e2.alive
        assert (cache.entry_count, cache.mask_count) == (1, 1)
        assert cache.lookup(FlowKey(space, {"ip_src": 1})).entry is e2
        cache.remove_entry(e2)
        assert not e2.alive
        assert (cache.entry_count, cache.mask_count) == (0, 0)
        cache.remove_entry(e2)  # already gone (subtable too): a no-op
        assert (cache.entry_count, cache.mask_count) == (0, 0)

    @pytest.mark.parametrize("scan_order", ["insertion", "ranked"])
    def test_partial_idle_sweep_against_hand_computed_state(self, scan_order):
        """A mixed table aged so only some entries cross the timeout:
        eviction is strictly ``now - last_used > idle_timeout``."""
        space = toy_single_field_space()
        cache = MegaflowCache(space, idle_timeout=10.0, scan_order=scan_order)
        emc = MicroflowCache(entries=16, ways=2)
        # (mask, value, last_used); swept at now=20.0 -> idle 20 / 10 /
        # 9.5 / 12 / 0: the first and fourth expire, the second sits
        # exactly on the timeout and stays
        plan = [
            (0xFF, 0x01, 0.0),
            (0xFF, 0x02, 10.0),
            (0xF0, 0x10, 10.5),
            (0xC0, 0x40, 8.0),
            (0x80, 0x80, 20.0),
        ]
        entries = []
        for mask, value, last_used in plan:
            entry = cache.insert(_match(space, value, mask), Allow(), now=0.0)
            entry.last_used = last_used
            emc.insert(FlowKey(space, {"ip_src": value}), entry)
            entries.append(entry)
        assert cache.expire_idle(now=20.0) == 2
        assert cache.expired_total == 2
        assert [e.alive for e in entries] == [False, True, True, False, True]
        assert cache.entries() == [entries[1], entries[2], entries[4]]
        assert (cache.entry_count, cache.mask_count) == (3, 3)
        # 0xFF keeps its subtable (one entry left), 0xC0's is destroyed
        # — in ranked order it waits, marked dead, for the lazy
        # compaction the next scan-order access runs
        tss = cache.tss
        assert tss._scan_dead == (1 if scan_order == "ranked" else 0)
        assert [s.masks for s in tss.subtables()] == [(0xFF,), (0xF0,), (0x80,)]
        assert [len(s) for s in tss.subtables()] == [1, 1, 1]
        assert tss._scan_dead == 0
        assert emc.invalidate_dead() == 2
        assert emc.occupancy == 3
        # nothing further is idle; a second sweep is a pure no-op
        assert cache.expire_idle(now=20.0) == 0
        assert cache.expired_total == 2

    def test_mask_count_tracks_subtables(self):
        space = toy_single_field_space()
        cache = MegaflowCache(space)
        cache.insert(_match(space, 1, 0xFF), Allow())
        cache.insert(_match(space, 2, 0xFF), Allow())
        cache.insert(_match(space, 0x80, 0x80), Drop())
        assert cache.mask_count == 2
        assert cache.entry_count == 3


class TestMicroflowCache:
    def _key(self, value):
        return FlowKey(OVS_FIELDS, {"ip_src": value})

    def _entry(self):
        return MegaflowEntry(
            match=FlowMatch.wildcard(OVS_FIELDS), action=Allow()
        )

    def test_hit_and_miss(self):
        cache = MicroflowCache(entries=16, ways=2)
        entry = self._entry()
        cache.insert(self._key(1), entry)
        assert cache.lookup(self._key(1)) is entry
        assert cache.lookup(self._key(2)) is None
        assert cache.hits == 1 and cache.lookups == 2

    def test_capacity_never_exceeded(self):
        cache = MicroflowCache(entries=8, ways=2)
        for i in range(100):
            cache.insert(self._key(i), self._entry())
        assert cache.occupancy <= 8

    def test_lru_eviction_within_set(self):
        cache = MicroflowCache(entries=2, ways=2)  # one set, two ways
        a, b, c = self._entry(), self._entry(), self._entry()
        cache.insert(self._key(1), a, now=1.0)
        cache.insert(self._key(2), b, now=2.0)
        cache.lookup(self._key(1), now=3.0)  # key 1 now most recent
        cache.insert(self._key(3), c, now=4.0)  # evicts key 2 (LRU)
        assert cache.lookup(self._key(1)) is a
        assert cache.lookup(self._key(2)) is None
        assert cache.evictions == 1

    def test_lru_tie_evicts_the_first_slot(self):
        """Of equally old slots the eviction takes the first in the
        set, i.e. the earliest admitted of them."""
        cache = MicroflowCache(entries=3, ways=3)  # one set, three ways
        a, b, c, d = (self._entry() for _ in range(4))
        cache.insert(self._key(1), a, now=5.0)
        cache.insert(self._key(2), b, now=2.0)
        cache.insert(self._key(3), c, now=2.0)
        cache.insert(self._key(4), d, now=6.0)  # keys 2 and 3 tie
        assert cache.lookup(self._key(2)) is None
        assert cache.lookup(self._key(3)) is c
        assert cache.lookup(self._key(1)) is a
        assert cache.evictions == 1

    def test_stale_entries_purged_on_contact(self):
        cache = MicroflowCache(entries=16, ways=2)
        entry = self._entry()
        cache.insert(self._key(1), entry)
        entry.alive = False
        assert cache.lookup(self._key(1)) is None
        assert cache.stale_hits == 1
        assert cache.occupancy == 0

    def test_invalidate_dead_sweep(self):
        cache = MicroflowCache(entries=16, ways=2)
        live, dead = self._entry(), self._entry()
        cache.insert(self._key(1), live)
        cache.insert(self._key(2), dead)
        dead.alive = False
        assert cache.invalidate_dead() == 1
        assert cache.occupancy == 1

    def test_probabilistic_insertion(self):
        # with probability 0 nothing is ever admitted (the netdev EMC's
        # em-flow-insert-inv-prob knob taken to its extreme)
        cache = MicroflowCache(entries=16, ways=2, insertion_prob=0.0,
                               rng=DeterministicRng(1))
        assert cache.insert(self._key(1), self._entry()) is False
        assert cache.occupancy == 0

    def test_reinsert_updates_in_place(self):
        cache = MicroflowCache(entries=16, ways=2)
        first, second = self._entry(), self._entry()
        cache.insert(self._key(1), first)
        cache.insert(self._key(1), second)
        assert cache.occupancy == 1
        assert cache.lookup(self._key(1)) is second

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroflowCache(entries=0)
        with pytest.raises(ValueError):
            MicroflowCache(entries=7, ways=2)
        with pytest.raises(ValueError):
            MicroflowCache(entries=8, ways=2, insertion_prob=1.5)

    def test_flush(self):
        cache = MicroflowCache(entries=8, ways=2)
        cache.insert(self._key(1), self._entry())
        cache.flush()
        assert cache.occupancy == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    def test_lookup_returns_what_was_inserted(self, values):
        cache = MicroflowCache(entries=64, ways=4)
        entries = {}
        for v in values:
            entry = self._entry()
            if cache.insert(self._key(v), entry):
                entries[v] = entry
        for v, entry in entries.items():
            found = cache.lookup(self._key(v))
            # either still cached (then it must be the right entry) or evicted
            assert found is None or found.match is not None

    # the packed-int index: it holds exactly the slots in ``_sets``, each
    # in the set its key hashes to, through every writer of ``_sets``

    @staticmethod
    def _assert_index_matches_sets(cache):
        stored = {}
        for i, bucket in enumerate(cache._sets):
            assert len(bucket) <= cache.ways
            for slot in bucket:
                assert cache._set_index(slot.key) == i
                stored[slot.key.packed] = slot
        assert cache._index.keys() == stored.keys()
        assert all(cache._index[packed] is slot
                   for packed, slot in stored.items())
        assert cache.occupancy == len(stored)

    def test_an_eviction_drops_the_victim_from_the_index(self):
        cache = MicroflowCache(entries=2, ways=2)  # one set, two ways
        cache.insert(self._key(1), self._entry(), now=1.0)
        cache.insert(self._key(2), self._entry(), now=2.0)
        cache.insert(self._key(3), self._entry(), now=3.0)  # evicts key 1
        assert not _stored(cache, self._key(1))
        assert _stored(cache, self._key(2)) and _stored(cache, self._key(3))
        self._assert_index_matches_sets(cache)

    def test_a_stale_purge_drops_the_key_from_the_index(self):
        cache = MicroflowCache(entries=16, ways=2)
        entry = self._entry()
        cache.insert(self._key(1), entry)
        entry.alive = False
        assert _stored(cache, self._key(1))  # stale slots still count
        assert cache.lookup(self._key(1)) is None
        assert not _stored(cache, self._key(1))
        self._assert_index_matches_sets(cache)

    def test_invalidate_dead_drops_dead_keys_from_the_index(self):
        cache = MicroflowCache(entries=16, ways=2)
        live, dead = self._entry(), self._entry()
        cache.insert(self._key(1), live)
        cache.insert(self._key(2), dead)
        cache.insert(self._key(3), dead)
        dead.alive = False
        assert cache.invalidate_dead() == 2
        assert _stored(cache, self._key(1))
        assert not _stored(cache, self._key(2))
        assert not _stored(cache, self._key(3))
        self._assert_index_matches_sets(cache)

    def test_flush_empties_the_index(self):
        cache = MicroflowCache(entries=8, ways=2)
        for i in range(6):
            cache.insert(self._key(i), self._entry())
        cache.flush()
        assert not any(_stored(cache, self._key(i)) for i in range(6))
        self._assert_index_matches_sets(cache)

    @settings(max_examples=100, deadline=None)
    @given(
        insertion_prob=st.sampled_from([1.0, 0.5]),
        ops=st.lists(st.one_of(
            *[st.tuples(st.just("insert"), st.integers(0, 7),
                        st.integers(0, 3))] * 4,
            st.tuples(st.just("lookup"), st.integers(0, 7)),
            st.tuples(st.just("hits"), st.lists(st.integers(0, 7),
                                                max_size=6)),
            st.tuples(st.just("kill"), st.integers(0, 3)),
            st.tuples(st.just("invalidate_dead")),
            st.tuples(st.just("flush")),
        ), min_size=8, max_size=40),
    )
    def test_the_index_probes_as_the_set_scan_does(self, insertion_prob,
                                                   ops):
        """Fed one history, the indexed cache and the retired set scan
        (``oracles.SetScanMicroflowCache``) give every probe the same
        answer and keep the same slots and counters; the index holds
        exactly the stored slots after every step."""
        from repro.testing.oracles import SetScanMicroflowCache

        # 8 keys over two 2-way sets: inserts evict
        caches = [cls(entries=4, ways=2, insertion_prob=insertion_prob,
                      rng=DeterministicRng(7))
                  for cls in (MicroflowCache, SetScanMicroflowCache)]
        entries = [self._entry() for _ in range(4)]
        for step, op in enumerate(ops):
            now = float(step)
            answers = []
            for cache in caches:
                # every probe builds fresh keys: equal, never identical
                if op[0] == "insert":
                    answer = cache.insert(self._key(op[1]), entries[op[2]],
                                          now)
                elif op[0] == "lookup":
                    answer = id(cache.lookup(self._key(op[1]), now))
                elif op[0] == "hits":
                    answer = [(id(entry), count) for entry, count in
                              cache.lookup_hits([self._key(v) for v in op[1]],
                                                0, now)]
                elif op[0] == "kill":
                    entries[op[1]].alive = False
                    answer = None
                elif op[0] == "invalidate_dead":
                    answer = cache.invalidate_dead()
                else:
                    answer = cache.flush()
                answers.append((answer, [_stored(cache, self._key(v))
                                         for v in range(8)]))
            if op[0] == "kill":
                entries[op[1]] = self._entry()
            assert answers[0] == answers[1], op
            ours, ref = caches
            assert [[(s.key.values, id(s.entry), s.last_used)
                     for s in bucket] for bucket in ours._sets] == \
                   [[(s.key.values, id(s.entry), s.last_used)
                     for s in bucket] for bucket in ref._sets]
            for name in ("lookups", "hits", "insertions", "evictions",
                         "stale_hits", "occupancy"):
                assert getattr(ours, name) == getattr(ref, name), name
            self._assert_index_matches_sets(ours)
