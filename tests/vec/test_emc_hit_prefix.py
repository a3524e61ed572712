"""``VecSwitch`` serves a burst's EMC hit prefix in one pass: on a
train-heavy feed it must stay bit-identical to ``OvsSwitch`` — results
in key order, every counter, every EMC slot — in both result modes."""

import random

import pytest

from repro.flow.actions import Output
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import LookupPath, OvsSwitch
from repro.testing import fingerprint
from repro.vec import HAVE_NUMPY

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
