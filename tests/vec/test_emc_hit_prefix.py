"""``VecSwitch`` serves a burst's EMC hits in the inherited walk, and
pre-scans the rest of the burst from its first EMC miss on: on a
train-heavy feed it must stay bit-identical to ``OvsSwitch`` — results
in key order, every counter, every EMC slot — in both result modes.

The hit prefix — the live hits a burst opens with — has no probe of its
own: the walk serves it as it serves every hit, and its first question
to the tuple space hands the rest of the burst to the pre-scan.  So the
memo a burst starts afresh holds exactly the distinct keys from that
question on, and every key of the rest is a ``memo`` answer.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.actions import Output
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import LookupPath, OvsSwitch
from repro.testing import fingerprint
from repro.vec import HAVE_NUMPY, VEC_TSS_PATHS

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch

VICTIM_IP = ip_to_int("10.0.9.77")
PORTS = (80, 443, 8080)


def _flow(i):
    return FlowKey(OVS_FIELDS, {
        "eth_type": 0x0800, "ip_src": 0x0A010000 + 37 * i,
        "ip_dst": VICTIM_IP, "ip_proto": 6,
        "tp_src": 2000 + i, "tp_dst": PORTS[i % len(PORTS)],
    })


FLOWS = [_flow(i) for i in range(96)]
#: one rule per port: three megaflows, so neighbouring trains are
#: served by different entries
RULES = [
    FlowRule(
        match=FlowMatch(OVS_FIELDS, {
            "eth_type": (0x0800, 0xFFFF),
            "ip_dst": (VICTIM_IP, 0xFFFFFFFF),
            "tp_dst": (port, 0xFFFF),
        }),
        action=Output(7 + n), priority=10, tenant="victim",
    )
    for n, port in enumerate(PORTS)
]


def _feed(seed, packets, fresh_every=0):
    """Heavy-tailed ON trains over ``FLOWS``; every ``fresh_every``-th
    train is made of equal-but-not-identical key objects (a pcap
    extract), the rest repeat one object."""
    rng = random.Random(seed)
    feed = []
    train = 0
    while len(feed) < packets:
        i = min(int(rng.paretovariate(0.9)) - 1, len(FLOWS) - 1)
        length = min(24, int(rng.paretovariate(1.3)))
        train += 1
        if fresh_every and train % fresh_every == 0:
            feed.extend(_flow(i) for _ in range(length))
        else:
            feed.extend([FLOWS[i]] * length)
    return feed[:packets]


def _build(cls, **kwargs):
    switch = cls(space=OVS_FIELDS, name="hit-prefix", **kwargs)
    switch.add_rules(RULES)
    return switch


@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize("emc", [
    dict(emc_entries=8192),                      # everything stays resident
    dict(emc_entries=16),                        # constant LRU eviction
    dict(emc_entries=64, emc_insertion_prob=0.3),  # rejects: repeat misses
])
def test_train_heavy_feed_matches_the_reference(emc, materialize):
    ref, vec = _build(OvsSwitch, **emc), _build(VecSwitch, **emc)
    feed = _feed(seed=11, packets=4096, fresh_every=5)
    for index in range(0, len(feed), 256):
        burst = feed[index:index + 256]
        now = 0.01 * (index // 256 + 1)
        if index == 2048:
            # kill a hot megaflow under the EMC: its slots go stale and
            # the next burst meets them mid-prefix
            for switch in (ref, vec):
                switch.megaflow.remove_entry(switch.megaflow.entries()[0])
        ref_batch = ref.process_batch(burst, now=now,
                                      materialize=materialize)
        vec_batch = vec.process_batch(burst, now=now,
                                      materialize=materialize)
        # dataclass equality: results, counters and install pairs
        # (entries compare by value — match, action, hits, times)
        assert vec_batch == ref_batch, index
        assert fingerprint(vec) == fingerprint(ref), index
        if materialize:
            # one result per packet, in key order
            assert len(vec_batch.results) == len(burst)
            for key, result in zip(burst, vec_batch.results):
                if result.path is not LookupPath.UPCALL:
                    assert result.entry.match.matches(key), index
    assert vec.microflow.stale_hits == ref.microflow.stale_hits
    if emc == dict(emc_entries=8192):
        assert vec.microflow.stale_hits > 0
        assert vec.stats.emc_hits > 0.9 * len(feed)


# -- the hit prefix, episode by episode ----------------------------------

_TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                       tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
COVERT_RULES = KubernetesCms().compile(_POLICY, _TARGET, OVS_FIELDS)
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=_TARGET.pod_ip).keys()
#: covert keys installed up front, one mask each: enough columns that
#: a few distinct keys pay for a pre-scan
INSTALLED = 256
#: the pool bursts are drawn from: victim flows (EMC residents), installed
#: covert keys (megaflow hits) and covert keys never installed (upcalls)
POOL = FLOWS[:6] + COVERT[:12] + COVERT[INSTALLED:INSTALLED + 4]


def _episode_switch(cls, emc):
    switch = cls(space=OVS_FIELDS, name="hit-prefix", **emc)
    switch.add_rules(RULES + COVERT_RULES)
    switch.process_batch(COVERT[:INSTALLED], now=0.0, materialize=False)
    # the installs' EMC slots dropped: the covert keys are megaflow
    # hits, and four victim flows are EMC residents (the other two are
    # absent until a burst serves them)
    switch.microflow.flush()
    switch.process_batch(FLOWS[:4], now=0.0)
    return switch


def _entry_serving(switch, key):
    return next((entry for entry in switch.megaflow.entries()
                 if entry.match.matches(key)), None)


def _first_question(switch, burst):
    """Where the walk first asks the tuple space: the burst's first key
    that is not a live EMC hit as the burst opens."""
    index = switch.microflow._index
    for i, key in enumerate(burst):
        slot = index.get(key.packed)
        if slot is None or not slot.entry.alive:
            return i
    return len(burst)


def _starts_afresh(tss):
    """Whether the next pre-scan builds its memo from its own keys only:
    no memo is exact (live at this generation, no insert absorbed)."""
    return (tss._memo is None or tss._memo_generation != tss.generation
            or bool(tss._memo_written))



def _burst(trains):
    """ON trains over ``POOL``: one key object repeated, or equal fresh
    objects."""
    keys = []
    for index, length, fresh in trains:
        key = POOL[index]
        keys += ([FlowKey.from_tuple(OVS_FIELDS, key.values)
                  for _ in range(length)] if fresh else [key] * length)
    return keys


def _send(ref, vec, burst, now, materialize):
    """One burst through both switches: the same results, counters and
    state, and every lookup counted on one path — all of them ``memo``
    answers when the rest of the burst from its first question was
    pre-scanned, and the memo holding exactly its distinct keys when it
    started afresh."""
    tss = vec.megaflow.tss
    first = _first_question(vec, burst)
    rest = {key.packed for key in burst[first:]}
    afresh = _starts_afresh(tss)
    # the rest is handed over whole; a memo built afresh holds only
    # what its own scan answers
    scanned = (len(burst) - first >= tss.VEC_MIN_BATCH
               and tss.prescan_pays(len(burst) - first)
               and (not afresh or tss.prescan_pays(len(rest))))
    before, looked_up = dict(vec.vec_tss_paths), tss.total_lookups
    memo = tss._memo
    ref_batch = ref.process_batch(burst, now=now, materialize=materialize)
    vec_batch = vec.process_batch(burst, now=now, materialize=materialize)
    assert vec_batch == ref_batch
    assert fingerprint(vec) == fingerprint(ref)
    paths = {name: vec.vec_tss_paths[name] - before[name]
             for name in VEC_TSS_PATHS}
    lookups = tss.total_lookups - looked_up
    assert sum(paths.values()) == lookups
    if first == len(burst):
        # no question asked: nothing answered, and an all-hit burst
        # pre-scans nothing
        assert lookups == 0
        if burst:
            assert tss._memo is memo
    elif scanned:
        assert paths == dict(dict.fromkeys(VEC_TSS_PATHS, 0), memo=lookups)
        if afresh:
            assert set(tss._memo) == rest
        else:
            assert set(tss._memo) >= rest


_train = st.tuples(st.integers(0, len(POOL) - 1), st.integers(1, 5),
                   st.booleans())
#: a burst opens with victim trains — mostly EMC residents, so a hit
#: prefix — and goes on over the whole pool
_trains = st.tuples(
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5), st.booleans()),
             max_size=4),
    st.lists(_train, max_size=14),
).map(lambda parts: parts[0] + parts[1])
OPS = st.one_of(
    st.tuples(st.just("burst"), _trains, st.booleans()),
    st.tuples(st.just("burst"), _trains, st.booleans()),
    st.tuples(st.just("burst"), _trains, st.booleans()),
    # a victim flow's megaflow dies: its EMC slots go stale
    st.tuples(st.just("kill"), st.integers(0, 5)),
    # an installed covert megaflow dies: the memo is retired
    st.tuples(st.just("retire"), st.integers(12, INSTALLED - 1)),
    st.tuples(st.just("flush_emc")),
)

#: the burst the episodes send after their hit prefix: a rest long
#: enough to pre-scan, megaflow hits and one upcall among it
_REST = [(6 + i % 12, 1 + i % 2, False) for i in range(14)] + [(18, 2, False)]


@settings(deadline=None)
@given(emc=st.sampled_from([dict(emc_entries=8192), dict(emc_entries=16),
                            dict(emc_entries=64, emc_insertion_prob=0.3),
                            dict(emc_insertion_prob=0.0)]),
       ops=st.lists(OPS, max_size=10))
# a stale slot mid-prefix, live hits on either side of it
@example(emc=dict(emc_entries=8192), ops=[
    ("burst", [(0, 2, False), (1, 2, False), (2, 2, False)], True),
    ("kill", 1),
    ("burst", [(0, 3, False), (1, 2, False), (2, 2, False)] + _REST, True),
])
# an absent key mid-prefix
@example(emc=dict(emc_entries=8192), ops=[
    ("burst", [(0, 2, False), (2, 2, False)], True),
    ("retire", 40),
    ("burst", [(0, 3, False), (4, 1, False), (2, 2, False)] + _REST, True),
])
# equal-but-not-identical ON trains, in the prefix and after it
@example(emc=dict(emc_entries=8192), ops=[
    ("burst", [(0, 1, False), (1, 1, False), (2, 1, False)], True),
    ("retire", 41),
    ("burst", [(0, 3, True), (1, 2, True), (0, 1, True), (5, 2, True)]
     + _REST + [(1, 3, True)], False),
])
# an empty EMC with insertion on: the rest is the whole burst
@example(emc=dict(emc_entries=8192), ops=[
    ("burst", [(0, 2, False), (1, 2, False)] + _REST, True),
    ("flush_emc",),
    ("retire", 42),
    ("burst", [(0, 2, False), (1, 2, False)] + _REST, True),
])
# an empty burst, on a full EMC and on an empty one
@example(emc=dict(emc_entries=8192), ops=[
    ("burst", [(0, 2, False)] + _REST, True),
    ("burst", [], True),
    ("flush_emc",),
    ("burst", [], False),
    ("burst", [(0, 2, False)] + _REST, True),
])
def test_the_walk_pre_scans_from_the_first_question(emc, ops):
    ref, vec = _episode_switch(OvsSwitch, emc), _episode_switch(VecSwitch, emc)
    now = 0.0
    for op in ops:
        now += 0.01
        if op[0] == "burst":
            _send(ref, vec, _burst(op[1]), now, op[2])
            continue
        for switch in (ref, vec):
            if op[0] == "flush_emc":
                switch.microflow.flush()
                continue
            entry = _entry_serving(
                switch, FLOWS[op[1]] if op[0] == "kill" else COVERT[op[1]])
            if entry is not None:
                switch.megaflow.remove_entry(entry)
        assert fingerprint(vec) == fingerprint(ref), op


def test_an_empty_burst_leaves_nothing_a_later_burst_sees():
    """An empty burst on an empty EMC that can store asks the tuple
    space nothing, so a memo that has absorbed an install outlives it;
    handed its (empty) rest, ``prescan_burst`` would drop that memo.
    Nothing can tell the two apart: the next burst's first question
    pre-scans afresh either way."""
    emc = dict(emc_entries=8192)
    ref = _episode_switch(OvsSwitch, emc)
    kept, dropped = (_episode_switch(VecSwitch, emc) for _ in range(2))
    history = [_burst(_REST), [], _burst([(3, 2, False)] + _REST)]
    for step, burst in enumerate(history):
        now = 0.01 * (step + 1)
        for switch in (ref, kept, dropped):
            switch.process_batch(burst, now=now)
        if step == 0:
            for switch in (ref, kept, dropped):
                switch.microflow.flush()
            assert kept.megaflow.tss._memo_written  # the upcall's install
        elif step == 1:
            # the empty rest handed to the pre-scan all the same
            tss = dropped.megaflow.tss
            tss.prescan_burst(burst, 0)
            assert tss._memo is None
            assert kept.megaflow.tss._memo is not None
        assert fingerprint(kept) == fingerprint(ref), step
        assert fingerprint(dropped) == fingerprint(ref), step
        assert kept.vec_tss_paths == dropped.vec_tss_paths, step
    assert set(kept.megaflow.tss._memo) == set(dropped.megaflow.tss._memo)

