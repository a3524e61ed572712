"""The burst walk serves the EMC in its own loop, as per-key lookups do.

``OvsSwitch._resolve`` reads the exact-match cache's index once per
distinct key, serves a live slot's whole ON train in one step, folds
each run of trains one entry serves once (before an upcall, and at the
end of the burst) and the EMC's counters once per burst; a megaflow hit
still takes ``MicroflowCache.insert``, the one home of placement and
eviction.  Here the walk is held to ``oracles.resolve_per_key`` — one
``lookup`` per packet, one ``insert`` per megaflow hit — on the retired
set-scan EMC (``oracles.SetScanMicroflowCache``, its own insert and LRU
eviction), on the scalar ``OvsSwitch`` alone (no NumPy): after every
burst the two switches' fingerprints are equal, in both result modes,
and so are their ``BatchResult`` s and what every install guard saw of
the entries at its upcall.
"""

from types import MethodType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flow.actions import Drop, Output
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.ovs.stats import COUNTERS
from repro.ovs.switch import LookupPath, OvsSwitch
from repro.testing import fingerprint, oracles
from repro.testing.fingerprint import entry_view
from repro.util.rng import DeterministicRng

#: (entries, ways, insertion_prob): the ``kernel`` profile's one-way
#: EMC, the netdev default, and a tiny two-way one that draws its
#: admissions
SHAPES = [(256, 1, 1.0), (8192, 2, 1.0), (4, 2, 0.5)]
#: destinations: one forwarded, one dropped by a rule, one no rule matches
DSTS = (0x0A000901, 0x0A000902, 0x0A000903)
RULES = [
    FlowRule(FlowMatch(OVS_FIELDS, {"eth_type": (0x0800, 0xFFFF),
                                    "ip_dst": (DSTS[0], 0xFFFFFFFF)}),
             Output(7), priority=10),
    FlowRule(FlowMatch(OVS_FIELDS, {"eth_type": (0x0800, 0xFFFF),
                                    "ip_dst": (DSTS[1], 0xFFFFFFFF)}),
             Drop(), priority=10),
]


def _key(dst, src):
    return FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": 0x0A010000 + src,
                                "ip_dst": DSTS[dst], "ip_proto": 6,
                                "tp_src": 2000 + src, "tp_dst": 443})


def _set_of(key, n_sets):
    return hash(key.values) % n_sets


#: a source whose forwarded key shares a 256-set with source 0's, so a
#: one-way EMC evicts between them
COLLIDER = next(src for src in range(1, 4096)
                if _set_of(_key(0, src), 256) == _set_of(_key(0, 0), 256))
POOL = [_key(dst, src) for dst in range(len(DSTS))
        for src in (0, 1, 2, COLLIDER)]


class _EvictingLimit:
    """Holds the megaflow cache to ``limit`` entries by evicting the
    oldest at an install: the entry an EMC slot names dies mid-burst."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, context):
        cache = context.cache
        if cache.entry_count >= self.limit:
            cache.remove_entry(cache.entries()[0])


def _snooping(log):
    """An install guard that approves every install and records what a
    guard can read of the cache at its upcall: each entry's ``hits``
    and ``last_used``, which the walk's EMC hits before it must have
    reached."""
    def guard(context):
        log.append([(entry.hits, entry.last_used)
                    for entry in context.cache.entries()])
    return guard


def _switch(shape, walk, evicting, log):
    entries, ways, prob = shape
    switch = OvsSwitch(emc_entries=entries, emc_ways=ways,
                       emc_insertion_prob=prob, rng=DeterministicRng(5))
    switch.add_rules(RULES)
    switch.add_install_guard(_snooping(log))
    if evicting:
        switch.add_install_guard(_EvictingLimit(2))
    if not walk:
        switch._resolve = MethodType(oracles.resolve_per_key, switch)
        emc = switch.microflow
        switch.microflow = switch.revalidator.microflow = \
            oracles.SetScanMicroflowCache(
                entries=emc.capacity, ways=emc.ways,
                insertion_prob=emc.insertion_prob, rng=emc.rng,
            )
    return switch


def _batch_view(batch):
    return (
        [getattr(batch, name) for name in COUNTERS],
        [(r.action, r.path, r.tuples_scanned, r.hash_probes,
          None if r.entry is None else entry_view(r.entry), r.install_skipped)
         for r in batch.results],
        [(key.packed, entry_view(entry)) for key, entry in batch.installed],
    )


class _Pair:
    """The walk and the per-key oracle, in both result modes, fed the
    same bursts."""

    def __init__(self, shape, evicting=False):
        self.guarded = {(walk, materialize): []
                        for walk in (True, False)
                        for materialize in (True, False)}
        self.switches = {
            mode: _switch(shape, mode[0], evicting, log)
            for mode, log in self.guarded.items()
        }

    @property
    def walk(self):
        return self.switches[True, True]

    def send(self, burst, now):
        views = {}
        for (walk, materialize), switch in self.switches.items():
            views[walk, materialize] = _batch_view(
                switch.process_batch(burst, now=now, materialize=materialize))
        prints = [(fingerprint(switch), switch.microflow.rng._random.getstate())
                  for switch in self.switches.values()]
        # the same slots, counters and EMC admission draws
        assert all(p == prints[0] for p in prints[1:]), burst
        # every install guard saw the entries as per-key lookups left them
        logs = list(self.guarded.values())
        assert all(log == logs[0] for log in logs[1:]), burst
        # materialized: every result and count as the oracle's
        assert views[True, True] == views[False, True]
        # aggregate-only: the same counts and installs, no results
        assert views[True, False] == views[False, False]
        assert views[True, False][0] == views[True, True][0]
        assert views[True, False][1] == []
        return views[True, True]


def _train(index, length, fresh):
    """An ON train: one key object repeated, or equal fresh objects."""
    key = POOL[index]
    if fresh:
        return [FlowKey.from_tuple(OVS_FIELDS, key.values)
                for _ in range(length)]
    return [key] * length


_trains = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), st.integers(1, 6),
              st.booleans()),
    min_size=1, max_size=10,
)


@pytest.mark.parametrize("evicting", [False, True], ids=["plain", "evicting"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@given(bursts=st.lists(_trains, min_size=1, max_size=6))
def test_the_walk_leaves_what_per_key_lookups_leave(shape, evicting, bursts):
    pair = _Pair(shape, evicting)
    for step, trains in enumerate(bursts):
        burst = [key for train in trains for key in _train(*train)]
        pair.send(burst, now=float(step))


def test_an_identical_train_is_served_as_one_run():
    pair = _Pair(SHAPES[1])
    key = POOL[0]
    pair.send([key], now=1.0)  # upcall: installs, offers the EMC
    pair.send([POOL[1]], now=2.0)  # megaflow hit: an EMC insert
    entry = pair.walk.microflow._index[key.packed].entry
    hits = entry.hits
    served = pair.send([key] * 5 + [POOL[1]] * 3, now=3.0)
    assert [result[1] for result in served[1]] == [LookupPath.MICROFLOW] * 8
    assert entry.hits == hits + 8 and entry.last_used == 3.0
    emc = pair.walk.microflow
    assert (emc.lookups, emc.hits) == (10, 8)


def test_equal_but_fresh_keys_are_served_from_one_slot():
    pair = _Pair(SHAPES[1])
    pair.send([POOL[0]], now=1.0)
    burst = _train(0, 4, fresh=True)
    pair.send(burst, now=2.0)
    assert pair.walk.stats.emc_hits == 4
    assert pair.walk.microflow._index[POOL[0].packed].last_used == 2.0


def test_a_train_whose_entry_dies_at_an_upcall_is_purged_mid_burst():
    # one forwarded megaflow serves POOL[0]'s train from the EMC; two
    # upcalls for new destinations make the evicting guard remove it,
    # so the same train after them meets a stale slot
    pair = _Pair(SHAPES[1], evicting=True)
    first, dropped, unmatched = POOL[0], POOL[4], POOL[8]
    pair.send([first], now=1.0)
    emc = pair.walk.microflow
    slot = emc._index[first.packed]
    pair.send([first] * 3 + [dropped, unmatched] + [first] * 3, now=2.0)
    assert not slot.entry.alive
    assert emc.stale_hits == 1
    # purged, missed, re-installed by its upcall and served again
    assert emc._index[first.packed] is not slot
    assert pair.walk.stats.upcalls == 4


def test_a_one_way_set_evicts_its_only_slot():
    pair = _Pair(SHAPES[0])
    one, other = POOL[0], POOL[3]
    assert _set_of(one, 256) == _set_of(other, 256)
    pair.send([one, other], now=1.0)  # one upcall, one megaflow hit
    emc = pair.walk.microflow
    assert emc.evictions == 1 and other.packed in emc._index
    assert one.packed not in emc._index
    pair.send([one] * 2 + [other] * 2, now=2.0)
    assert emc.evictions == 3 and emc.occupancy == 1
