"""``MicroflowCache.lookup_hits`` is per-key ``lookup``, batched.

Two caches are built from the same history; one then resolves a burst
with one ``lookup`` per key (the reference), the other with
``lookup_hits`` for every hit prefix and a ``lookup`` for the key each
prefix stopped at — the way ``VecSwitch`` drives it.  Afterwards the
slots, their ``last_used``, all five counters, the occupancy and the
per-key outcomes must be equal, and the probe itself must have mutated
nothing at the key it stopped on.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow
from repro.flow.fields import toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache

SPACE = toy_single_field_space()
N_KEYS = 10
N_ENTRIES = 4
COUNTERS = ("lookups", "hits", "insertions", "evictions", "stale_hits")


def _key(value):
    return FlowKey(SPACE, {"ip_src": value})


#: the objects the caches store; bursts mix them with fresh equal ones
STORED = [_key(value) for value in range(N_KEYS)]

_value = st.integers(0, N_KEYS - 1)
_entry = st.integers(0, N_ENTRIES - 1)
#: a burst is ON trains: (key, train length, fresh-but-equal objects?)
_train = st.tuples(_value, st.integers(1, 5), st.booleans())
OPS = st.one_of(
    st.tuples(st.just("insert"), _value, _entry),
    st.tuples(st.just("insert"), _value, _entry),
    st.tuples(st.just("kill"), _entry),
    st.tuples(st.just("burst"), st.lists(_train, max_size=8),
              st.integers(0, 3)),
    st.tuples(st.just("burst"), st.lists(_train, max_size=8),
              st.integers(0, 3)),
)


def _entry_for(i):
    return MegaflowEntry(FlowMatch(SPACE, {"ip_src": (i, 0xFF)}), Allow())


def _snapshot(cache):
    return (
        [[(slot.key.values, id(slot.entry), slot.last_used)
          for slot in bucket] for bucket in cache._sets],
        tuple(getattr(cache, name) for name in COUNTERS),
        cache.occupancy,
    )


def _per_key(cache, keys, start, now):
    return [cache.lookup(key, now) for key in keys[start:]]


def _batched(cache, keys, start, now):
    outcomes = []
    i = start
    while i < len(keys):
        before = _snapshot(cache)
        runs = cache.lookup_hits(keys, i, now)
        served = [entry for entry, count in runs for _ in range(count)]
        assert all(count > 0 for _, count in runs)
        # coalesced: neighbouring runs never share an entry
        assert all(a[0] is not b[0] for a, b in zip(runs, runs[1:]))
        outcomes += served
        i += len(served)
        # the hits are ticked, the key it stopped at is left alone
        _, counters, occupancy = _snapshot(cache)
        assert counters == (
            before[1][0] + len(served), before[1][1] + len(served),
            *before[1][2:],
        )
        assert occupancy == before[2]
        if not served:
            assert _snapshot(cache) == before
        if i < len(keys):
            # the key the prefix stopped at: absent or stale, a miss
            assert cache.lookup(keys[i], now) is None
            outcomes.append(None)
            i += 1
    return outcomes


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=30), ways=st.sampled_from([1, 2, 4]))
@example(ways=2, ops=[
    ("insert", 1, 0), ("insert", 2, 1), ("insert", 3, 2), ("insert", 4, 0),
    # ON trains, identical and equal-but-not-identical objects
    ("burst", [(1, 4, False), (2, 3, True), (1, 1, True), (4, 2, False)], 0),
    ("kill", 1),
    # a stale slot mid-prefix (key 2), hits on either side of it
    ("burst", [(1, 2, False), (2, 2, True), (3, 2, False)], 0),
    # an absent key mid-prefix (key 7), entered past the burst's head
    ("burst", [(9, 1, False), (3, 2, False), (7, 2, False), (4, 3, True)], 1),
    ("insert", 2, 1),
    ("burst", [(2, 5, True)], 3),
])
def test_the_burst_probe_is_per_key_lookup(ops, ways):
    reference = MicroflowCache(entries=8, ways=ways)
    batched = MicroflowCache(entries=8, ways=ways)
    entries = [_entry_for(i) for i in range(N_ENTRIES)]
    now = 0.0
    for step, op in enumerate(ops):
        now += 0.25  # a moving clock: every op stamps a new last_used
        if op[0] == "insert":
            for cache in (reference, batched):
                cache.insert(STORED[op[1]], entries[op[2]], now)
        elif op[0] == "kill":
            # an eviction: slots pointing here go stale, and the next
            # install of that megaflow is a new object
            entries[op[1]].alive = False
            entries[op[1]] = _entry_for(op[1])
        else:
            keys = [
                _key(value) if fresh else STORED[value]
                for value, length, fresh in op[1] for _ in range(length)
            ]
            start = min(op[2], len(keys))
            expected = _per_key(reference, keys, start, now)
            assert _batched(batched, keys, start, now) == expected, step
        assert _snapshot(batched) == _snapshot(reference), (step, op)
