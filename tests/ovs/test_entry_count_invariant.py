"""The tuple space's running entry count can never drift.

``TupleSpaceSearch.entry_count`` is a counter kept by the mutation paths
(``insert`` / ``remove`` / ``remove_if`` / ``clear``), not a recount —
the flow-limit check reads it on every install.  This property drives
random operation sequences through every public way a megaflow can
appear or disappear and recounts after each step.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flow.actions import Allow
from repro.flow.fields import toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import CacheFullError, MegaflowCache
from repro.ovs.tss import TupleSpaceSearch
from repro.vec import HAVE_NUMPY

SPACE = toy_single_field_space()
MASKS = (0xFF, 0xF0, 0xC0, 0x0F)
TENANTS = ("alice", "mallory", None)

_value = st.integers(0, 3)  # few values: mostly duplicates and replacements
_now = st.floats(0.0, 40.0, allow_nan=False)
_pick = st.integers(0, 1 << 16)

_INSERT = st.tuples(st.just("insert"), st.sampled_from(MASKS), _value,
                    st.sampled_from(TENANTS), _now)
_OTHER = st.one_of(
    st.tuples(st.just("lookup"), _value, _now),
    st.tuples(st.just("remove_entry"), _pick),
    st.tuples(st.just("tss_remove"), _pick),
    st.tuples(st.just("tss_remove_missing"), st.sampled_from(MASKS)),
    st.tuples(st.just("remove_if"), st.integers(0, 1)),
    st.tuples(st.just("evict_tenant"), st.sampled_from(TENANTS)),
    st.tuples(st.just("expire_idle"), _now),
    st.tuples(st.just("resort")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("clear")),
)
#: half the steps install, so the table is rarely empty when a removal
#: arrives and duplicate installs are common
OPS = st.one_of(_INSERT, _OTHER)


def _tss_classes():
    classes = [TupleSpaceSearch]
    if HAVE_NUMPY:
        from repro.vec.engine import VecTupleSpaceSearch
        classes.append(VecTupleSpaceSearch)
    return classes


def _cache(tss_cls, scan_order, key_mode, staged):
    cache = MegaflowCache(SPACE, flow_limit=10, idle_timeout=10.0,
                          staged=staged, scan_order=scan_order,
                          key_mode=key_mode)
    if tss_cls is not TupleSpaceSearch:
        # the swap VecSwitch does on its (still empty) cache
        cache.tss = tss_cls(SPACE, staged=staged, scan_order=scan_order,
                            key_mode=key_mode)
    return cache


def _apply(cache, op, ever_inserted):
    tss = cache.tss
    kind = op[0]
    if kind == "insert":
        _, mask, value, tenant, now = op
        match = FlowMatch(SPACE, {"ip_src": (value << 4 | value, mask)})
        try:
            ever_inserted.append(cache.insert(match, Allow(), now, tenant))
        except CacheFullError:
            pass
    elif kind == "lookup":
        cache.lookup(FlowKey(SPACE, {"ip_src": op[1] << 4 | op[1]}), op[2])
    elif kind == "remove_entry" and ever_inserted:
        # live, replaced and long-evicted entries alike
        cache.remove_entry(ever_inserted[op[1] % len(ever_inserted)])
    elif kind == "tss_remove":
        live = cache.entries()
        if live:
            entry = live[op[1] % len(live)]
            entry.alive = False
            tss.remove(entry.match.masks, entry.match.values)
    elif kind == "tss_remove_missing":
        with pytest.raises(KeyError):
            tss.remove((op[1],), (0x100,))  # no 8-bit key masks to this
    elif kind == "remove_if":
        tss.remove_if(lambda entry: entry.match.values[0] % 2 == op[1])
    elif kind == "evict_tenant":
        cache.evict_tenant(op[1])
    elif kind == "expire_idle":
        cache.expire_idle(op[1])
    elif kind == "resort":
        cache.resort_subtables()
    elif kind == "flush":
        cache.flush()
    elif kind == "clear":
        tss.clear()


@pytest.mark.parametrize("staged", [False, True])
@pytest.mark.parametrize("key_mode", ["packed", "tuple"])
@pytest.mark.parametrize("scan_order", ["insertion", "ranked"])
@pytest.mark.parametrize("tss_cls", _tss_classes(),
                         ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
@example(ops=[  # every operation once, around a duplicate install
    ("insert", 0xFF, 1, "alice", 0.0),
    ("insert", 0xFF, 1, "mallory", 1.0),
    ("remove_entry", 0),  # the replaced one: stale
    ("insert", 0xF0, 2, "mallory", 2.0),
    ("insert", 0x0F, 3, None, 3.0),
    ("lookup", 1, 4.0),
    ("resort",),
    ("tss_remove_missing", 0xC0),
    ("tss_remove", 1),
    ("expire_idle", 12.5),
    ("insert", 0xC0, 0, "alice", 13.0),
    ("evict_tenant", "alice"),
    ("insert", 0xFF, 2, None, 14.0),
    ("remove_if", 0),
    ("insert", 0xFF, 3, None, 15.0),
    ("flush",),
    ("insert", 0xFF, 3, None, 16.0),
    ("clear",),
])
def test_running_count_equals_a_recount(tss_cls, scan_order, key_mode,
                                        staged, ops):
    cache = _cache(tss_cls, scan_order, key_mode, staged)
    tss = cache.tss
    ever_inserted = []
    for op in ops:
        _apply(cache, op, ever_inserted)
        subtables = tss.subtables()
        assert tss.entry_count == sum(len(s) for s in subtables), op
        assert tss.mask_count == len(subtables), op
        assert all(len(s) for s in subtables), op  # empties are destroyed
        assert cache.entry_count == len(cache.entries()), op
        assert all(s.check_packed_consistency() for s in subtables), op
