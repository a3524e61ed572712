"""The exact-match cache's running occupancy can never drift.

``MicroflowCache.occupancy`` is a counter kept by the five writers of
``_sets`` (``insert`` append, LRU eviction, stale purge in ``lookup``,
``invalidate_dead``, ``flush``), not a recount — ``VecEmcStore.refresh``
reads it on every burst.  This property drives random operation
sequences through every public way a slot can appear or disappear and
recounts after each step.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow
from repro.flow.fields import toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.util.rng import DeterministicRng

SPACE = toy_single_field_space()
#: more keys than the cache has slots, so full sets evict
KEYS = [FlowKey(SPACE, {"ip_src": value}) for value in range(12)]
N_ENTRIES = 4

_key = st.integers(0, len(KEYS) - 1)
_entry = st.integers(0, N_ENTRIES - 1)
_now = st.floats(0.0, 40.0, allow_nan=False)

OPS = st.one_of(
    # half the steps insert: sets fill up, re-inserts update in place
    st.tuples(st.just("insert"), _key, _entry, _now),
    st.tuples(st.just("insert"), _key, _entry, _now),
    st.tuples(st.just("insert"), _key, _entry, _now),
    st.tuples(st.just("lookup"), _key, _now),
    st.tuples(st.just("lookup_hits"), st.lists(_key, max_size=6), _now),
    st.tuples(st.just("kill"), _entry),
    st.tuples(st.just("invalidate_dead")),
    st.tuples(st.just("flush")),
)


def _apply(cache, entries, op):
    kind = op[0]
    if kind == "insert":
        cache.insert(KEYS[op[1]], entries[op[2]], op[3])
    elif kind == "lookup":
        cache.lookup(KEYS[op[1]], op[2])
    elif kind == "lookup_hits":
        cache.lookup_hits([KEYS[i] for i in op[1]], 0, op[2])
    elif kind == "kill":
        # what an eviction does: slots pointing here are now stale
        entries[op[1]].alive = False
    elif kind == "invalidate_dead":
        cache.invalidate_dead()
    elif kind == "flush":
        cache.flush()


@pytest.mark.parametrize("insertion_prob", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("ways", [1, 2, 4])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, max_size=50))
@example(ops=[  # every writer once (keys 0, 3 and 6 share a set)
    ("insert", 0, 0, 0.0),
    ("insert", 0, 1, 1.0),      # in-place update
    ("insert", 3, 0, 2.0),
    ("insert", 6, 2, 3.0),      # the set's third key: evicts when ways < 3
    ("kill", 0),
    ("lookup", 3, 4.0),         # stale purge
    ("lookup_hits", [6, 6, 3, 0], 5.0),
    ("kill", 2),
    ("invalidate_dead",),
    ("insert", 1, 3, 6.0),
    ("flush",),
    ("insert", 2, 3, 7.0),
])
def test_running_occupancy_equals_a_recount(ways, insertion_prob, ops):
    cache = MicroflowCache(entries=4, ways=ways,
                           insertion_prob=insertion_prob,
                           rng=DeterministicRng(3))
    entries = [
        MegaflowEntry(FlowMatch(SPACE, {"ip_src": (i, 0xFF)}), Allow())
        for i in range(N_ENTRIES)
    ]
    for op in ops:
        _apply(cache, entries, op)
        assert cache.occupancy == sum(len(b) for b in cache._sets), op
        assert all(len(b) <= ways for b in cache._sets), op
        assert list(cache.resident_keys()) == [
            slot.key for bucket in cache._sets for slot in bucket
        ], op
    # purges and flushes only ever shrink it
    assert cache.occupancy <= cache.insertions - cache.evictions
