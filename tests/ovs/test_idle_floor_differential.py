"""The idle floor held to the sweep it lets ``expire_idle`` skip: two
caches (then two switches) take the same generated operations, one of
them with ``expire_idle`` replaced by the literal pass over every live
entry, and at every sweep both must evict the same entries and count
the same total.

The operations are the writers of ``last_used`` DESIGN.md §7's clock
contract names — cache entry points with forward *and stale* ``now``,
and the bypass writers (``refresh``, the switch's EMC-hit fold) under
the one rule they keep: never hand an entry a time earlier than it
already carries, or than the switch clock.
"""

import dataclasses
from types import MethodType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.actions import Allow
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.net.addresses import ip_to_int
from repro.ovs.megaflow import CacheFullError, MegaflowCache
from repro.ovs.switch import OvsSwitch

IDLE_TIMEOUT = 4.0

TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                      tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
RULES = KubernetesCms().compile(_POLICY, TARGET, OVS_FIELDS)
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=TARGET.pod_ip).keys()[:24]

KEYS = [
    FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": src, "tp_dst": port})
    for src in (0x0A000001, 0x0A000101, 0x0B000001) for port in (80, 443)
]
MASKS = [
    FlowMatch(OVS_FIELDS, {
        "ip_src": (0, (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF),
        "tp_dst": (0, port_mask),
    }).masks
    for prefix in (8, 24, 32) for port_mask in (0, 0xFFFF)
]


def _full_pass(cache, now):
    """``expire_idle`` as it was: visit every live entry, every time."""
    idle = [entry for entry in cache.entries()
            if now - entry.last_used > cache.idle_timeout]
    for entry in idle:
        cache.remove_entry(entry)
    cache.expired_total += len(idle)
    return len(idle)


def _match(key, masks):
    return FlowMatch.from_tuples(
        OVS_FIELDS, tuple(v & m for v, m in zip(key.values, masks)), masks
    )


# sweeps and hits land on both sides of the timeout, on it, and at
# times no other operation used
_now = st.one_of(
    st.integers(0, 80).map(lambda quarter: quarter / 4),
    st.floats(0.0, 20.0, allow_nan=False),
)
_key = st.integers(0, len(KEYS) - 1)
_pick = st.integers(0, 1 << 16)  # taken modulo whatever exists
_tenant = st.sampled_from(["mallory", "bob"])
_forward = st.floats(0.0, 8.0)
_sweep = st.tuples(st.just("expire_idle"), _now)
_free_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(MASKS) - 1), _key, _now,
              _tenant),
    st.tuples(st.just("lookup"), _key, _now),
    st.tuples(st.just("lookup_batch"), st.lists(_key, max_size=4), _now),
    st.tuples(st.just("refresh"), _pick, _forward),
    st.tuples(st.just("remove_entry"), _pick),
    st.tuples(st.just("evict_tenant"), _tenant),
    st.tuples(st.just("flush")),
    _sweep,
)


_gap = st.floats(0.0, IDLE_TIMEOUT)


def _stale_hit(key):
    """What the floor must survive, too rare to leave to chance: an
    entry refreshed forward, a sweep just outside the timeout of its
    install (so the floor is re-derived, from the refreshed stamp),
    then a *hit* at a stale ``now`` and a sweep that may find it due."""
    return st.tuples(st.integers(0, len(MASKS) - 1), _now, _tenant,
                     _forward, _gap, _now, _gap).map(
        lambda d: (
            ("insert", d[0], key, d[1], d[2]),
            ("refresh", -1, d[3]),
            ("expire_idle", d[1] + IDLE_TIMEOUT + d[4]),
            ("lookup" if d[0] % 2 else "lookup_batch",
             key if d[0] % 2 else [key], d[5]),
            ("expire_idle", d[5] + IDLE_TIMEOUT + d[6]),
        )
    )


def _flattened(free_op, episode):
    return st.lists(
        st.one_of(free_op.map(lambda op: (op,)), episode),
        min_size=1, max_size=12,
    ).map(lambda groups: [op for group in groups for op in group])


_cache_ops = _flattened(_free_op, _key.flatmap(_stale_hit))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_cache_ops, st.sampled_from(["insertion", "ranked"]))
def test_a_cache_evicts_what_the_full_pass_evicts(ops, scan_order):
    real, oracle = (
        MegaflowCache(OVS_FIELDS, flow_limit=8, idle_timeout=IDLE_TIMEOUT,
                      scan_order=scan_order)
        for _ in range(2)
    )
    oracle.expire_idle = MethodType(_full_pass, oracle)
    pairs = []  # every entry ever installed: (real's, oracle's)
    for op, *args in ops:
        if op == "insert":
            mask, key, now, tenant = args
            match = _match(KEYS[key], MASKS[mask])
            try:
                installed = [cache.insert(match, Allow(), now=now,
                                          tenant=tenant)
                             for cache in (real, oracle)]
            except CacheFullError:
                assert real.rejected_inserts == oracle.rejected_inserts
            else:
                pairs.append(installed)
        elif op == "lookup":
            key, now = args
            hits = [cache.lookup(KEYS[key], now).entry
                    for cache in (real, oracle)]
            assert (hits[0] is None) == (hits[1] is None)
        elif op == "lookup_batch":
            keys, now = args
            for cache in (real, oracle):
                cache.lookup_batch([KEYS[k] for k in keys], now)
        elif op == "refresh" and pairs:
            # a bypass writer: forward of the entry's own stamp
            pick, forward = args
            for entry in pairs[pick % len(pairs)]:
                entry.refresh(entry.last_used + forward)
        elif op == "remove_entry" and pairs:
            for cache, entry in zip((real, oracle),
                                    pairs[args[0] % len(pairs)]):
                cache.remove_entry(entry)
        elif op == "evict_tenant":
            assert real.evict_tenant(args[0]) == oracle.evict_tenant(args[0])
        elif op == "flush":
            real.flush()
            oracle.flush()
        elif op == "expire_idle":
            assert real.expire_idle(args[0]) == oracle.expire_idle(args[0])
        # the same evicted set, not only the same count
        assert [mine.alive for mine, _ in pairs] == \
            [theirs.alive for _, theirs in pairs], (op, args)
        assert [mine.last_used for mine, _ in pairs] == \
            [theirs.last_used for _, theirs in pairs]
        assert real.expired_total == oracle.expired_total
        assert real.entry_count == oracle.entry_count


_covert = st.integers(0, len(COVERT) - 1)
_clock = st.one_of(st.none(), _now)
#: ``process_batch`` then, unless ``None``, the simulator's bypass
#: writer on the first key's entry: ``refresh`` forward of its stamp
_refreshed = st.one_of(st.none(), _forward)
_switch_op = st.one_of(
    st.tuples(st.just("process_batch"),
              st.lists(_covert, min_size=1, max_size=8), _clock, _refreshed),
    st.tuples(st.just("handle_miss"), _covert, _now),
    st.tuples(st.just("advance_clock"), _now),
)


def _emc_hit_behind_a_refresh(index):
    """An entry refreshed ahead of the clock (the simulator's
    ``refresh(t_next)``), a sweep that re-derives the floor from it,
    then an EMC hit that stamps it with the — earlier — switch clock,
    and a sweep that may find it due."""
    return st.tuples(_now, _forward, _gap, _gap).map(
        lambda d: (
            ("process_batch", [index], d[0], d[1]),
            ("advance_clock", d[0] + IDLE_TIMEOUT + d[2]),
            ("process_batch", [index], None, None),
            ("advance_clock", d[0] + 2 * IDLE_TIMEOUT + d[2] + d[3]),
        )
    )


_switch_ops = _flattened(_switch_op, _covert.flatmap(_emc_hit_behind_a_refresh))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_switch_ops)
def test_a_switch_sweeps_what_the_full_pass_sweeps(ops):
    """The same through the whole pipeline: EMC hits stamp entries with
    the switch clock, ``handle_miss`` installs at whatever time it is
    handed (ahead of the clock or behind it), and the revalidator
    sweeps on its own grid."""
    real, oracle = (
        OvsSwitch(space=OVS_FIELDS, name="floor", idle_timeout=IDLE_TIMEOUT,
                  emc_entries=64, emc_insertion_prob=1.0)
        for _ in range(2)
    )
    oracle.megaflow.expire_idle = MethodType(_full_pass, oracle.megaflow)
    for switch in (real, oracle):
        switch.add_rules(RULES)
    for op, *args in ops:
        for switch in (real, oracle):
            if op == "process_batch":
                indices, now, forward = args
                entry = switch.process_batch(
                    [COVERT[i] for i in indices], now=now
                ).results[0].entry
                if forward is not None and entry is not None:
                    entry.refresh(entry.last_used + forward)
            elif op == "handle_miss":
                switch.handle_miss(COVERT[args[0]], now=args[1])
            else:
                switch.advance_clock(args[0])
        assert dataclasses.asdict(real.stats) == \
            dataclasses.asdict(oracle.stats), (op, args)
        assert real.revalidator.evicted_total == \
            oracle.revalidator.evicted_total, (op, args)
        assert real.revalidator.sweeps == oracle.revalidator.sweeps
        assert [(e.match.values, e.hits, e.last_used)
                for e in real.megaflow.entries()] == \
            [(e.match.values, e.hits, e.last_used)
             for e in oracle.megaflow.entries()]
