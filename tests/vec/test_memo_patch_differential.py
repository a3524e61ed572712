"""The burst memo across writes, held to the scalar tuple space as its
spec: one ``TupleSpaceSearch`` and one ``VecTupleSpaceSearch`` take the
same generated operations, and every lookup, credit and counter must
agree — whether the answer came from a scan, a scalar probe or a memo
patched with the subtables written since its pre-scan.

The masks overlap on purpose (a key can match several subtables, the
shallowest wins), which OVS's own megaflows never do: it is what makes
an insert *above* or *at* a memo hit change the answer.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.tss import TupleSpaceSearch
from repro.vec import HAVE_NUMPY

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.vec.engine import VecTupleSpaceSearch

    class EagerVecTss(VecTupleSpaceSearch):
        """Pre-scans whatever it is given, so a dozen subtables arm a
        memo."""

        PRESCAN_MIN_WORK = 1


#: addresses sharing /8, /16 and /24 prefixes, so short masks fold
#: several keys onto one entry and long ones tell them apart
_SOURCES = (0x0A000001, 0x0A000002, 0x0A000101, 0x0A010001, 0x0B000001)
KEYS = [
    FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": src, "tp_dst": port})
    for src in _SOURCES for port in (80, 443)
]
MASKS = [
    FlowMatch(OVS_FIELDS, {
        "ip_src": (0, (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF),
        "tp_dst": (0, port_mask),
        "eth_type": (0, eth_mask),
    }).masks
    for prefix in (8, 16, 24, 32)
    for port_mask in (0, 0xFFFF)
    for eth_mask in (0, 0xFFFF)
]

_key = st.integers(0, len(KEYS) - 1)
_pick = st.integers(0, 1 << 16)  # taken modulo whatever exists
_insert = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(MASKS) - 1), _key),
    st.tuples(st.just("insert_existing"), _pick, _key),
    st.tuples(st.just("replace"), _pick),
)
_lookup = st.tuples(st.just("lookup"), st.lists(_key, min_size=1, max_size=5))
_retire = st.tuples(st.sampled_from(["remove", "clear", "resort"]), _pick)
#: a burst as the switch drives one — a pre-scan (most keys covered,
#: not all), then lookups with the upcalls' installs between them — and
#: after some, what a burst never holds: a write that is not an insert.
#: Spelled as a fixed shape because ``one_of`` does not weigh its arms
_episode = st.tuples(
    st.tuples(st.just("prescan"), st.sets(_key, min_size=6)),
    st.lists(st.tuples(_insert, _lookup, _lookup), min_size=1, max_size=5),
    st.one_of(st.just(()), st.tuples(_retire, _lookup, _insert, _lookup)),
).map(lambda e: [e[0], *(op for round_ in e[1] for op in round_), *e[2]])
_ops = st.lists(_episode, min_size=1, max_size=4).map(
    lambda episodes: [op for episode in episodes for op in episode]
)
_configs = st.sampled_from([("insertion", 0), ("ranked", 0), ("ranked", 5)])


def _masked(key, masks):
    return tuple(v & m for v, m in zip(key.values, masks))


def _observables(tss):
    return (
        [(s.masks, s.hits, s.rank_hits, list(s.entries.items()))
         for s in tss.subtables()],
        (tss.total_lookups, tss.total_tuples_scanned, tss.total_hash_probes),
        tss.resorts,
    )


def _drive(config, seed_inserts, ops, census):
    scan_order, resort_interval = config
    ref = TupleSpaceSearch(OVS_FIELDS, scan_order=scan_order,
                           resort_interval=resort_interval)
    vec = EagerVecTss(OVS_FIELDS, scan_order=scan_order,
                      resort_interval=resort_interval)
    serial = 0

    def insert(masks, masked):
        nonlocal serial
        serial += 1
        entry = f"entry-{serial}"  # a fresh object: identity is checked
        assert ref.insert(masks, masked, entry).masks == \
            vec.insert(masks, masked, entry).masks

    for mask, key in seed_inserts:
        insert(MASKS[mask], _masked(KEYS[key], MASKS[mask]))
    inserts_since_prescan = 0
    for step, op in enumerate(ops):
        kind = op[0]
        existing = list(ref.iter_entries())
        if kind == "prescan":
            vec.prescan([KEYS[i].packed for i in sorted(op[1])])
            inserts_since_prescan = 0
        elif kind == "insert":
            insert(MASKS[op[1]], _masked(KEYS[op[2]], MASKS[op[1]]))
            inserts_since_prescan += 1
        elif kind == "insert_existing" and existing:
            masks = existing[op[1] % len(existing)][0]
            insert(masks, _masked(KEYS[op[2]], masks))
            inserts_since_prescan += 1
        elif kind == "replace" and existing:
            masks, masked, _entry = existing[op[1] % len(existing)]
            insert(masks, masked)
            inserts_since_prescan += 1
        elif kind == "remove" and existing:
            masks, masked, _entry = existing[op[1] % len(existing)]
            ref.remove(masks, masked)
            vec.remove(masks, masked)
        elif kind == "clear":
            ref.clear()
            vec.clear()
        elif kind == "resort":
            ref.resort()
            vec.resort()
        elif kind == "lookup":
            chunk = [KEYS[i] for i in op[1]]
            memo_before = vec.path_lookups["memo"]
            expected = ref.lookup_batch(chunk)
            got = vec.lookup_batch(chunk)
            assert len(got) == len(expected), (step, op)
            for want, have in zip(expected, got):
                assert have.entry is want.entry, (step, op)
                assert have.tuples_scanned == want.tuples_scanned, (step, op)
                assert have.hash_probes == want.hash_probes, (step, op)
            census["lookups"] += len(got)
            if inserts_since_prescan:
                # a memo that answers here absorbed every one of them
                census["memo_after_insert"] += (
                    vec.path_lookups["memo"] - memo_before
                )
        assert _observables(vec) == _observables(ref), (step, op)
    assert sum(vec.path_lookups.values()) == vec.total_lookups


def test_patched_memo_answers_equal_the_scalar_tuple_space():
    census = Counter()

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        config=_configs,
        seed_inserts=st.lists(
            st.tuples(st.integers(0, len(MASKS) - 1), _key),
            min_size=2, max_size=8,
        ),
        ops=_ops,
    )
    def run(config, seed_inserts, ops):
        _drive(config, seed_inserts, ops, census)

    run()
    # the property is only worth its name if the patched memo is what
    # answered a fair share of the lookups it was checked on
    assert census["memo_after_insert"] * 4 >= census["lookups"], census
