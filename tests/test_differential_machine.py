"""One differential machine for every fast path.

The claim: whatever engine, shard count, scan order or result mode
answers, a datapath leaves exactly what the scalar per-key reference
leaves.  The machine draws one point of
:class:`~repro.perf.factory.DatapathConfig`'s product and builds two
datapaths from it, each driven by a ``DataplaneSimulator``:

* the system under test, as configured;
* the reference: the same point on the scalar ``OvsSwitch``, with the
  retired paths of :mod:`repro.testing.oracles` swapped in — the
  per-rule classify loop for the slow path, the tuple-keyed tuple space
  and the full-pass ``expire_idle`` for every cache, the set-scan EMC
  and the per-key burst walk for every shard, the per-packet model
  replay for the simulator — and bursts processed one key at a time
  through ``process()``.

Both take the same generated operations — bursts in both result modes,
clock moves, rule changes, install guards, RETA remaps, simulator ticks
with their perturbations, and direct writes to one shard's megaflow
cache under a live pre-scan — and after every one their
:func:`~repro.testing.fingerprint` must be equal.  The running counts
both sides keep (TSS entries and masks, EMC occupancy) are invariants
of both, and so is ``alive``: an entry anything still references is
alive exactly while its cache holds it.  On the columnar engine a scan
memo stamped at the live generation answers every key it holds as a
live scan does.

The machine runs once per point of the product's main axes — engine,
shards with the rebalancer, staging, scan order — with those pinned and
the rest drawn, and a last test asserts floors on what the runs' corpus
covered.
"""

import zlib
from collections import Counter
from itertools import count
from types import MethodType

import pytest
from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.ovs.upcall as upcall
from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.actions import Allow, Drop, Output
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.megaflow import CacheFullError
from repro.ovs.pmd import shard_views
from repro.ovs.stats import COUNTERS
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.ovs.wildcarding import classify_with_wildcards, compile_rule_plan
from repro.perf.costmodel import CostModel, DatapathProfile
from repro.perf.factory import DatapathConfig
from repro.perf.simulator import DataplaneSimulator
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.testing import fingerprint, oracles
from repro.testing.fingerprint import entry_view
from repro.util.bits import mask_of_prefix
from repro.vec import HAVE_NUMPY

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch, _first_match, _shallowest

#: every engine class the ``ovs`` backend can run, built by class: the
#: platform picks one, the machine holds both
ENGINES = (OvsSwitch, VecSwitch) if HAVE_NUMPY else (OvsSwitch,)

TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                      tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
#: pairwise-distinct covert keys, one mask each
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=TARGET.pod_ip).keys()[:32]
VICTIM_IP = ip_to_int("10.0.9.77")
VICTIMS = [
    FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": 0x0A010000 + 37 * i,
                         "ip_dst": VICTIM_IP, "ip_proto": 6,
                         "tp_src": 2000 + i, "tp_dst": 443})
    for i in range(4)
]
VICTIM_RULE = FlowRule(
    FlowMatch(OVS_FIELDS, {"eth_type": (0x0800, 0xFFFF),
                           "ip_dst": (VICTIM_IP, 0xFFFFFFFF)}),
    Output(7), priority=10, tenant="victim",
)
RULES = KubernetesCms().compile(_POLICY, TARGET, OVS_FIELDS) + [VICTIM_RULE]
#: keys sharing /8, /16 and /24 source prefixes, so the overlapping
#: masks below fold several of them onto one entry
STRANGERS = [
    FlowKey(OVS_FIELDS, {"eth_type": 0x0800, "ip_src": src, "tp_dst": port})
    for src in (0x0A000001, 0x0A000101, 0x0B000001) for port in (80, 443)
]
POOL = COVERT + VICTIMS + STRANGERS
#: what a cache episode draws from: few keys, so a pre-scan covers most
#: of what the episode looks up and installs
EPISODE_KEYS = [POOL.index(key) for key in COVERT[:2] + VICTIMS[:2] + STRANGERS]
#: overlapping masks — a key can match several subtables, the shallowest
#: wins — which the slow path never installs: only a direct cache write
#: makes an insert land *above* or *at* a pre-scanned hit
MASKS = [
    FlowMatch(OVS_FIELDS, {
        "ip_src": (0, mask_of_prefix(prefix, 32)),
        "tp_dst": (0, port_mask),
        "eth_type": (0, eth_mask),
    }).masks
    for prefix in (8, 16, 24, 32)
    for port_mask in (0, 0xFFFF)
    for eth_mask in (0, 0xFFFF)
]
#: a mask nothing installs: removing under it must raise on both sides
ABSENT_MASK = OVS_FIELDS.pack((1,) + (0,) * (len(OVS_FIELDS) - 1))
ACTIONS = (Allow(), Drop(), Output(1), Output(2))
TENANTS = ("extra", "bob")
TP_SRC = OVS_FIELDS.index_of("tp_src")
TP_DST = OVS_FIELDS.index_of("tp_dst")
#: one covert packet is 1000 bits: ``rate_bps = due * 1000`` sends
#: ``due`` packets a one-second tick
COVERT_FRAME_BYTES = 125
REPLAY_REGIMES = ("refreshed", "reinstalled", "expired", "dead in ledger",
                  "rejected", "reprobed", "rebalanced", "bucket charged",
                  "several laps")
#: what the corpus covered, summed over every example of one run
CENSUS: Counter = Counter()


# -- the reference's side --------------------------------------------------

def per_key_batch(datapath, keys, now, materialize):
    """``process_batch`` as the per-key reference spells it: ``process()``
    one key at a time, folded by the one per-packet tally.  An
    aggregate-only burst skips the dispatcher's bucket window, so its
    keys go to their shards directly."""
    shards = getattr(datapath, "shards", None)
    if shards and not materialize:
        datapath._advance(now)
        targets = [shards[datapath.shard_of(key)] for key in keys]
    else:
        targets = [datapath] * len(keys)
    batch = BatchResult()
    for key, target in zip(keys, targets):
        result = target.process(key, now=now)
        batch.tally(result.path, result.forwarded, result.tuples_scanned,
                    result.hash_probes)
        if result.install_skipped:
            batch.upcalls_rejected += 1
        if materialize:
            batch.results.append(result)
        if result.path is LookupPath.UPCALL and result.entry is not None:
            batch.installed.append((key, result.entry))
    return batch


def _outcome(call):
    """What ``call()`` returned, or the type of the error it raised."""
    try:
        return call()
    except (ValueError, KeyError, CacheFullError) as exc:
        return type(exc)


def _entry(outcome):
    """An entry by value; ``None``, or an error type, as is."""
    if outcome is None or isinstance(outcome, type):
        return outcome
    return entry_view(outcome)


def _batch_view(batch):
    if isinstance(batch, type):
        return batch
    # a multi-shard burst groups its installs per shard, the per-key
    # reference in key order: the same pairs, by key
    return (
        tuple(getattr(batch, name) for name in COUNTERS),
        [(r.action, r.path, r.tuples_scanned, r.hash_probes, _entry(r.entry),
          r.install_skipped) for r in batch.results],
        [(key.packed, entry_view(entry)) for key, entry
         in sorted(batch.installed, key=lambda pair: pair[0].packed)],
    )


def _resolved(tss, key):
    """``(packed mask, packed masked key)`` of the entry ``key`` resolves
    to, in scan order, without a lookup's credits and counts; else
    ``None``."""
    for subtable in tss.subtables():
        masked = key.packed & subtable.packed_mask
        if masked in subtable.entries:
            return subtable.packed_mask, masked
    return None


def _evicted(entry):
    """Marks ``entry`` evicted, for a predicate that removes it."""
    entry.alive = False
    return True


def _lookup_view(results):
    return [(_entry(r.entry), r.tuples_scanned, r.hash_probes)
            for r in results]


def _first_difference(a, b, path=()):
    """Where two fingerprints part, for the failure message."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            if a[key] != b[key]:
                return _first_difference(a[key], b[key], path + (key,))
    elif (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
          and len(a) == len(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, path + (i,))
    return path, a, b


class _EvictingLimit:
    """Holds a cache to ``limit`` entries by evicting the oldest, so an
    install kills an entry a ledger slot or an EMC slot still names."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, context):
        cache = context.cache
        if cache.entry_count >= self.limit:
            cache.remove_entry(cache.entries()[0])


def _narrowing(context):
    """Installs an exact match for odd source ports: a replacement match
    that arrives without its packed form."""
    if context.key.values[TP_SRC] % 2:
        return FlowMatch.exact(OVS_FIELDS, context.key)
    return None


GUARDS = {"evict": lambda: _EvictingLimit(6), "narrow": lambda: _narrowing}


def _recorded(send, log):
    def send_covert(t0, t1):
        sent, cycles = send(t0, t1)
        log.append((sent, [c.hex() for c in cycles]))
        return sent, cycles
    return send_covert


def _simulator(datapath, config, oracle):
    keys = list(COVERT[:config["n_keys"]])
    if config["duplicate"]:
        keys.append(keys[0])
    laps = count(1)

    def reprobe():
        # a new list object each time, rotated so indices move too
        k = next(laps) % len(keys)
        return keys[k:] + keys[:k]

    sim = DataplaneSimulator(
        switch=datapath, cost_model=CostModel(),
        victim=VictimWorkload(offered_bps=1e9),
        attacker=AttackerWorkload(
            rate_bps=config["due"] * COVERT_FRAME_BYTES * 8.0,
            frame_bytes=COVERT_FRAME_BYTES, start_time=0.0,
        ),
        covert_keys=keys, victim_keys=VICTIMS[:2], covert_refresh=reprobe,
        reprobe_interval=config["reprobe_interval"],
    )
    sim.sent = []
    send = (MethodType(oracles.send_covert_per_packet, sim) if oracle
            else sim._send_covert)
    sim._send_covert = _recorded(send, sim.sent)
    sim.start()
    return sim


# -- strategies ------------------------------------------------------------

#: what every point draws.  A repeated choice weighs the draw (the first
#: one is what shrinking reaches for)
_axes = {
    # the vec engine pre-scans whatever it is given (results are the
    # same either way; only which path answers moves)
    "eager": st.sampled_from([True, True, True, False]),
    "emc": st.sampled_from([(64, 2, 1.0), (8, 1, 1.0), (16, 4, 0.5),
                            (64, 2, 0.0)]),
    # 1.5 s lets entries a covert lap longer than a tick misses idle out;
    # 1.3 s is no dyadic fraction, so ``clock - timeout`` rounds
    "idle_timeout": st.sampled_from([1.5, 4.0, 1.3]),
    "flow_limit": st.sampled_from([200_000, 6]),
    "sim": st.fixed_dictionaries({
        "n_keys": st.integers(1, 24),
        "duplicate": st.booleans(),
        # both sides of ``due < n`` and several laps a tick
        "due": st.integers(1, 60),
        "reprobe_interval": st.sampled_from([0.0, 2.0]),
    }),
}
#: what a point pins: engine, shards with the rebalancer, staging and
#: scan order.  A ranked pvector is re-sorted by the revalidator's
#: sweeps, between bursts, and by ``cache_episode``'s ``resort``
POINTS = {
    f"{engine.__name__}-{shards}shard{'-rebalanced' * rebalancer}"
    f"{'-staged' * staged}-{order}": {
        "engine": st.just(engine), "shards": st.just(shards),
        "rebalancer": st.just(rebalancer), "staged": st.just(staged),
        "order": st.just(order),
    }
    for engine in ENGINES
    for shards, rebalancer in ((1, False), (2, False), (2, True))
    for staged in (False, True)
    for order in ("insertion", "ranked")
}
_pool_key = st.integers(0, len(POOL) - 1)
_pick = st.integers(0, 63)  # taken modulo whatever exists
#: a time relative to the clock: stale, or forward up to the next tick;
#: the arbitrary ones make the floor's subtractions round
_when = st.one_of(st.sampled_from([0.0, 0.25, 1.0, -0.5, -2.0, -6.0]),
                  st.floats(-6.0, 1.0))
_tenant = st.sampled_from(TENANTS)


@st.composite
def _flow_rules(draw):
    """A rule over a pool key's values: each field wildcarded, or under a
    prefix, exact or arbitrary (non-prefix) mask."""
    base = POOL[draw(_pool_key)]
    fields = {}
    for index, spec in enumerate(OVS_FIELDS.specs):
        shape = draw(st.sampled_from(["wild", "prefix", "exact", "arbitrary"]))
        if shape == "wild":
            continue
        if shape == "prefix":
            mask = mask_of_prefix(draw(st.integers(1, spec.width)), spec.width)
        elif shape == "exact":
            mask = spec.max_value
        else:
            mask = draw(st.integers(1, spec.max_value))
        value = (base.values[index] if draw(st.booleans())
                 else draw(st.integers(0, spec.max_value)))
        fields[spec.name] = (value & mask, mask)
    return FlowRule(FlowMatch(OVS_FIELDS, fields), draw(st.sampled_from(ACTIONS)),
                    priority=draw(st.integers(0, 12)), tenant=draw(_tenant))


#: a new entry under one of ``MASKS``, under the mask of an existing
#: entry, or in place of one (a flow mod: same mask and key) — the one
#: the key resolves to, when it resolves
_episode_key = st.sampled_from(EPISODE_KEYS)
_insert = st.tuples(st.sampled_from(["insert", "insert_existing", "replace"]),
                    _pick, _episode_key, st.sampled_from(ACTIONS), _tenant,
                    _when)
_lookup = st.tuples(st.sampled_from(["lookup_batch", "lookup_batch", "lookup"]),
                    st.lists(_episode_key, min_size=1, max_size=5), _when)
_retire = st.one_of(
    st.tuples(st.sampled_from(["remove", "remove_entry"]), _pick),
    st.tuples(st.sampled_from(["clear", "flush", "resort", "remove_missing"])),
    st.tuples(st.just("evict_tenant"), _tenant),
    st.tuples(st.just("remove_if"), st.integers(0, 1)),
    st.tuples(st.just("expire_idle"), _when),
)
_prescan = st.tuples(st.just("prescan"), st.sets(_episode_key, min_size=4))
#: shaped like a burst — installs, a pre-scan, then installs with
#: lookups between them — and after some, what a burst never holds: a
#: write that is not an insert; after others, pre-scans and lookups at
#: one generation, as bursts that install nothing make them, each
#: pre-scan carrying the memo the one before it left.  A fixed shape,
#: because ``one_of`` does not weigh its arms
_episodes = st.tuples(
    st.lists(_insert, min_size=1, max_size=4),
    _prescan,
    st.lists(st.tuples(_insert, _lookup, _lookup), min_size=1, max_size=3),
    st.one_of(st.just(()), st.tuples(_retire, _lookup, _insert, _lookup)),
    st.one_of(st.just(()), st.tuples(*[st.tuples(_prescan, _lookup)] * 3)),
).map(lambda e: [*e[0], e[1], *(op for round_ in e[2] for op in round_),
                 *e[3], *(op for round_ in e[4] for op in round_)])


@st.composite
def _carried(draw):
    """Key sets for three pre-scans: the first, a second that leaves
    out one of the first's keys, and the first again."""
    first = draw(st.sets(_episode_key, min_size=4))
    left_out = draw(st.sampled_from(sorted(first)))
    second = draw(st.sets(
        st.sampled_from([key for key in EPISODE_KEYS if key != left_out]),
        min_size=1))
    return first, second, left_out


_key_values = st.one_of(
    _pool_key.map(lambda i: POOL[i].values),
    st.tuples(*(st.integers(0, spec.max_value) for spec in OVS_FIELDS.specs)),
)


# -- the machine -----------------------------------------------------------

class DifferentialMachine(RuleBasedStateMachine):
    """Run through :func:`_machine_at`, which draws ``build``'s config."""

    def build(self, config):
        self.config = config
        self.shards = config["shards"]
        self.rebalancing = config["rebalancer"] and self.shards > 1
        scan_order = config["order"]
        emc_entries, emc_ways, emc_insertion_prob = config["emc"]
        profile = DatapathProfile(
            name="machine", emc_entries=emc_entries, emc_ways=emc_ways,
            emc_insertion_prob=emc_insertion_prob,
            flow_limit=config["flow_limit"],
            idle_timeout=config["idle_timeout"],
        )

        datapath_config = DatapathConfig(
            profile, shards=self.shards, reta_size=16,
            staged=config["staged"], scan_order=scan_order, seed=3,
            rebalance_interval=2.0 if self.rebalancing else None,
        )

        def datapath(switch_cls):
            built = datapath_config._assemble(switch_cls)
            built.add_rules(RULES)
            return built

        self.sut = datapath(config["engine"])
        self.ref = datapath(OvsSwitch)
        for shard in shard_views(self.sut):
            self._count_sweeps(shard.megaflow)
            self._count_unprobed(shard)
            if config["engine"] is not OvsSwitch:
                self._count_carries(shard.megaflow.tss)
                if config["eager"]:
                    shard.megaflow.tss.PRESCAN_MIN_WORK = 1
        for shard in shard_views(self.ref):
            cache = shard.megaflow
            cache.tss = oracles.TupleKeyedSearch(
                OVS_FIELDS, staged=config["staged"], scan_order=scan_order,
            )
            cache.expire_idle = MethodType(oracles.expire_idle_full_pass,
                                           cache)
            shard._resolve = MethodType(oracles.resolve_per_key, shard)
            emc = shard.microflow
            shard.microflow = shard.revalidator.microflow = \
                oracles.SetScanMicroflowCache(
                    entries=emc.capacity, ways=emc.ways,
                    insertion_prob=emc.insertion_prob, rng=emc.rng,
                )
        self.sim = _simulator(self.sut, config["sim"], oracle=False)
        self.ref_sim = _simulator(self.ref, config["sim"], oracle=True)
        #: per shard, every entry a direct insert made: (sut's, ref's)
        self.inserted = [[] for _ in range(self.shards)]
        self.guards = 0
        self.compiled = set()

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _both(sut_call, ref_call):
        """The outcomes of ``sut_call()`` and then of ``ref_call()``, the
        latter with the slow path classifying by the per-rule loop."""
        got = _outcome(sut_call)
        upcall.classify_with_wildcards = oracles.classify_per_rule
        try:
            want = _outcome(ref_call)
        finally:
            upcall.classify_with_wildcards = classify_with_wildcards
        return got, want

    def _now(self, offset):
        """``offset`` from the clock, never past the next tick: the
        simulator refreshes its entries at the tick's end, and a bypass
        writer never hands an entry an earlier time than it carries."""
        return min(self.sut.clock + offset, self.sim.t + self.sim.dt)

    def _count_sweeps(self, cache):
        expire_idle = cache.expire_idle

        def counted(now):
            skipped = now - cache.tss.idle_floor <= cache.idle_timeout
            CENSUS["sweep skipped" if skipped else "sweep full"] += 1
            return expire_idle(now)

        cache.expire_idle = counted

    @staticmethod
    def _count_unprobed(switch):
        """Counts the bursts ``_resolve`` walks with no EMC probe — the EMC
        empty and unable to store — that repeat a key: where a probing
        walk would have had a duplicate to serve from the EMC."""
        resolve = switch._resolve

        def counted(keys, *args):
            emc = switch.microflow
            if (not emc.occupancy and not emc.can_store
                    and len({key.packed for key in keys}) < len(keys)):
                CENSUS["unprobed bursts"] += 1
            return resolve(keys, *args)

        switch._resolve = counted

    @staticmethod
    def _count_carries(tss):
        """Counts the pre-scans whose carried memo answers a key that the
        previous pre-scan was not given: an answer kept past a burst
        that did not ask for it, which only a memo holding its
        generation's keys can give."""
        prescan = tss.prescan
        kept = set()  # held by the memo, not given to the last pre-scan

        def counted(packed_keys):
            carried = tss._memo
            held = set(carried or ())
            prescan(packed_keys)
            carrying = carried is not None and tss._memo is carried
            if carrying and kept.intersection(packed_keys):
                CENSUS["memo carried past a burst"] += 1
            kept.clear()
            if carrying:
                kept.update(held.difference(packed_keys))

        tss.prescan = counted

    def _pair(self, shard):
        index = shard % self.shards
        return (index, shard_views(self.sut)[index],
                shard_views(self.ref)[index])

    # -- bursts and the clock --------------------------------------------

    @rule(picks=st.lists(st.tuples(_pool_key, st.integers(1, 3)),
                         min_size=1, max_size=12),
          when=_when, materialize=st.booleans())
    def burst(self, picks, when, materialize):
        keys = [POOL[i] for i, repeat in picks for _ in range(repeat)]
        now = self._now(when)
        if self.rebalancing:
            # the rebalancer acts at burst end, which per-key calls
            # would move: the reference runs one scalar burst
            def reference():
                return self.ref.process_batch(keys, now=now,
                                              materialize=materialize)
        else:
            def reference():
                return per_key_batch(self.ref, keys, now, materialize)
        got, want = self._both(
            lambda: self.sut.process_batch(keys, now=now,
                                           materialize=materialize),
            reference,
        )
        assert _batch_view(got) == _batch_view(want)
        if not isinstance(got, type):
            assert materialize or got.results == []

    @rule(when=st.sampled_from([0.5, 1.0, -1.0]))
    def advance_clock(self, when):
        now = self._now(when)
        got, want = self._both(lambda: self.sut.advance_clock(now),
                               lambda: self.ref.advance_clock(now))
        assert got == want

    @rule(key=_pool_key, when=_when)
    def handle_miss(self, key, when):
        now = self._now(when)
        got, want = self._both(
            lambda: self.sut.handle_miss(POOL[key], now=now),
            lambda: self.ref.handle_miss(POOL[key], now=now),
        )
        assert _entry(got) == _entry(want)

    # -- the rule set and the install path -------------------------------

    @rule(flow_rule=_flow_rules())
    def add_rule(self, flow_rule):
        self.sut.add_rule(flow_rule)
        self.ref.add_rule(flow_rule)

    @rule(tenant=_tenant)
    def remove_rules(self, tenant):
        assert self.sut.remove_tenant_rules(tenant) == \
            self.ref.remove_tenant_rules(tenant)

    @rule(shard=st.integers(0, 1), kind=st.sampled_from(["remove", "clear"]),
          pick=_pick)
    def write_table(self, shard, kind, pick):
        """A rule-set change behind the switch's back: the caches keep
        what they hold, only the slow path sees it."""
        _index, sut, ref = self._pair(shard)
        for table in (sut.table, ref.table):
            rules = table.rules()
            if kind == "clear":
                table.clear()
            elif rules:
                table.remove(rules[pick % len(rules)])

    @rule(shard=st.integers(0, 1), values=_key_values, packed=st.booleans())
    def classify(self, shard, values, packed):
        _index, sut, ref = self._pair(shard)
        key = FlowKey.from_tuple(OVS_FIELDS, values,
                                 OVS_FIELDS.pack(values) if packed else None)
        got = classify_with_wildcards(sut.table, key)
        want = oracles.classify_per_rule(ref.table, key)
        assert got.rule is want.rule
        assert got.rules_examined == want.rules_examined
        assert (got.megaflow.masks, got.megaflow.values, got.megaflow.packed) \
            == (want.megaflow.masks, want.megaflow.values, want.megaflow.packed)

    @precondition(lambda self: self.guards < 2)
    @rule(kind=st.sampled_from(sorted(GUARDS)))
    def install_guard(self, kind):
        self.sut.add_install_guard(GUARDS[kind]())
        self.ref.add_install_guard(GUARDS[kind]())
        self.guards += 1

    @precondition(lambda self: self.shards > 1)
    @rule(stride=st.integers(1, 4))
    def remap(self, stride):
        for datapath in (self.sut, self.ref):
            reta = datapath.reta
            for bucket in range(0, len(reta), stride):
                reta[bucket] = (reta[bucket] + 1) % self.shards

    # -- the simulator ---------------------------------------------------

    @rule(perturbation=st.sampled_from(["tick", "flush", "quiet_event",
                                        "gated"]),
          ticks=st.integers(1, 3))
    def tick(self, perturbation, ticks):
        """``ticks`` simulator steps; the perturbation lands on the last,
        after the others filled the ledger and its slot view."""
        for step in range(ticks):
            last = step == ticks - 1
            for sim in (self.sim, self.ref_sim):
                if last and perturbation == "flush":
                    sim.events.append(
                        (sim.t, lambda switch: switch.invalidate_caches()))
                elif last and perturbation == "quiet_event":
                    # flushes nothing: the ledger is dropped, its entries
                    # live on
                    sim.events.append((sim.t, lambda switch: None))
                # gated: the attacker pauses and resumes on the last of
                # several ticks (a two-tick pause idles its entries out)
                sim.covert_gate = (perturbation != "gated"
                                   or last and step > 0)
            before = self._replay_counts()
            assert self._both(self.sim.step, self.ref_sim.step) == \
                (self.sim.t,) * 2
            self._census_tick(before, self._replay_counts())

    def _replay_counts(self):
        shards = shard_views(self.sut)
        return {
            "upcalls": sum(s.slow_path.upcalls for s in shards),
            "rejected": sum(s.slow_path.installs_skipped for s in shards),
            "expired": sum(s.megaflow.expired_total for s in shards),
            "dead": sum(not entry.alive
                        for entry in self.sim._attacker_entries.values()),
            "lap": self.sim._covert_cursor >= len(self.sim.covert_keys),
            "reprobes": self.sim.reprobes,
            "rebalances": getattr(getattr(self.sut, "rebalancer", None),
                                  "rebalances", 0),
        }

    def _census_tick(self, before, after):
        """Which ways out of the steady state the model replay took in
        one tick."""
        sent = self.sim.sent[-1][0]
        upcalls = after["upcalls"] - before["upcalls"]
        CENSUS.update(regime for regime, reached in {
            "refreshed": sent > upcalls,
            "reinstalled": upcalls > 0 and before["lap"],
            "expired": after["expired"] > before["expired"],
            "dead in ledger": sent > 0 and before["dead"] > 0,
            "rejected": after["rejected"] > before["rejected"],
            "reprobed": after["reprobes"] > before["reprobes"],
            "rebalanced": after["rebalances"] != before["rebalances"],
            "bucket charged": sent > 0 and self.rebalancing,
            "several laps": sent > 2 * len(self.sim.covert_keys),
        }.items() if reached)

    # -- writes on one shard's cache that no burst can make --------------

    @rule(shard=st.integers(0, 1), ops=_episodes)
    def cache_episode(self, shard, ops):
        index, sut, ref = self._pair(shard)
        caches = (sut.megaflow, ref.megaflow)
        tss = sut.megaflow.tss
        paths = getattr(tss, "path_lookups", None)
        inserted = self.inserted[index]
        prescanned = False  # a pre-scan paid: its memo may answer
        inserts = 0  # absorbed since, unless something retired it
        for op in ops:
            kind = op[0]
            live = [list(cache.tss.iter_entries()) for cache in caches]
            if kind == "prescan":
                if paths is not None:
                    tss.prescan([POOL[i].packed for i in sorted(op[1])])
                    prescanned = tss._memo is not None
                inserts = 0
            elif kind in ("insert", "insert_existing", "replace"):
                _, pick, key, action, tenant, when = op
                values = POOL[key].values
                if kind == "insert":
                    masks = MASKS[pick % len(MASKS)]
                elif not live[0]:
                    continue
                elif kind == "insert_existing":
                    masks = OVS_FIELDS.unpack(live[0][pick % len(live[0])][0])
                else:  # a flow mod of what the key resolves to, if it does
                    packed = (_resolved(tss, POOL[key])
                              or live[0][pick % len(live[0])][:2])
                    masks, values = map(OVS_FIELDS.unpack, packed)
                match = FlowMatch.from_tuples(OVS_FIELDS, values, masks)
                now = self._now(when)
                pair = [_outcome(lambda c=cache: c.insert(
                    match, action, now=now, tenant=tenant)) for cache in caches]
                assert _entry(pair[0]) == _entry(pair[1]), op
                if not isinstance(pair[0], type):
                    inserted.append(pair)
                    inserts += 1
            elif kind in ("lookup", "lookup_batch"):
                keys = [POOL[i] for i in op[1]]
                now = self._now(op[2])
                memo = paths["memo"] if paths is not None else 0
                if kind == "lookup":
                    views = [_lookup_view([cache.lookup(key, now)
                                           for key in keys])
                             for cache in caches]
                else:
                    views = [_lookup_view(cache.lookup_batch(keys, now))
                             for cache in caches]
                assert views[0] == views[1], op
                if prescanned and kind == "lookup_batch":
                    CENSUS["memo lookups"] += len(views[0])
                    if inserts:
                        CENSUS["memo after insert"] += paths["memo"] - memo
            elif kind == "remove_entry":
                if inserted:
                    for cache, entry in zip(caches,
                                            inserted[op[1] % len(inserted)]):
                        cache.remove_entry(entry)
            # a write behind the cache's back evicts what it removes
            elif kind == "remove":
                for cache, side in zip(caches, live):
                    if side:
                        mask, value, entry = side[op[1] % len(side)]
                        entry.alive = False
                        cache.tss.remove(mask, value)
            elif kind == "remove_missing":
                assert [_outcome(lambda c=cache: c.tss.remove(ABSENT_MASK, 0))
                        for cache in caches] == [KeyError] * 2
            elif kind == "remove_if":
                removed = [cache.tss.remove_if(
                    lambda entry: entry.match.values[TP_DST] % 2 == op[1]
                    and _evicted(entry)) for cache in caches]
                assert removed[0] == removed[1]
            elif kind == "evict_tenant":
                assert caches[0].evict_tenant(op[1]) == \
                    caches[1].evict_tenant(op[1])
            elif kind == "expire_idle":
                # at or behind the shard's clock: no sweep runs ahead of it
                now = sut.clock + min(op[1], 0.0)
                assert caches[0].expire_idle(now) == caches[1].expire_idle(now)
            elif kind == "flush":
                for cache in caches:
                    cache.flush()
            elif kind == "clear":
                for cache in caches:
                    for entry in cache.entries():
                        entry.alive = False
                    cache.tss.clear()
            else:
                for cache in caches:
                    cache.tss.resort()

    @precondition(lambda self: self.config["engine"] is not OvsSwitch)
    @rule(shard=st.integers(0, 1), scans=_carried(),
          keys=st.lists(_episode_key, max_size=4), when=_when)
    def carried_memo(self, shard, scans, keys, when):
        """Three pre-scans at one generation, as bursts that install
        nothing make them: the third asks again for a key of the first
        that the second left out, which only the memo carried past the
        second holds; a burst asking for that key then checks the
        memo's answer."""
        _index, sut, ref = self._pair(shard)
        first, second, left_out = scans
        for scan in (first, second, first):
            sut.megaflow.tss.prescan([POOL[i].packed for i in sorted(scan)])
        keys = [POOL[i] for i in (left_out, *keys)]
        now = self._now(when)
        views = [_lookup_view(side.megaflow.lookup_batch(keys, now))
                 for side in (sut, ref)]
        assert views[0] == views[1]

    @rule(shard=st.integers(0, 1), mask=st.integers(0, len(MASKS) - 1),
          key=_episode_key,
          hit=st.sampled_from(["lookup_batch", "lookup", "insert"]),
          gaps=st.tuples(*[st.one_of(st.sampled_from([0.25, 1.0, 3.0]),
                                     st.floats(0.0, 3.0))] * 2))
    def stale_hit(self, shard, mask, key, hit, gaps):
        """What the idle floor must survive, too rare to leave to chance:
        an entry installed idle and refreshed, a sweep that re-derives
        the floor from it, then a hit at a stale ``now`` (a lookup, or a
        flow mod) and a sweep that may find it due."""
        _index, sut, ref = self._pair(shard)
        caches = (sut.megaflow, ref.megaflow)
        clock, timeout = sut.clock, sut.megaflow.idle_timeout
        match = FlowMatch.from_tuples(OVS_FIELDS, POOL[key].values,
                                      MASKS[mask])
        pair = [_outcome(lambda c=cache: c.insert(
            match, Allow(), now=clock - timeout - gaps[0])) for cache in caches]
        assert _entry(pair[0]) == _entry(pair[1])
        if isinstance(pair[0], type):
            return
        for entry in pair:
            entry.refresh(clock)  # a bypass writer: forward of its stamp
        stale = clock - timeout - gaps[1]
        for step in ("sweep", hit, "sweep"):
            if step == "sweep":
                seen = [cache.expire_idle(clock) for cache in caches]
            elif step == "insert":
                seen = [_entry(_outcome(lambda c=cache: c.insert(
                    match, Drop(), now=stale))) for cache in caches]
            elif step == "lookup":
                seen = [_lookup_view([cache.lookup(POOL[key], stale)])
                        for cache in caches]
            else:
                seen = [_lookup_view(cache.lookup_batch([POOL[key]], stale))
                        for cache in caches]
            assert seen[0] == seen[1], step

    # -- what must hold after every step ---------------------------------

    @invariant()
    def same_state(self):
        got = fingerprint(self.sut, self.sim)
        want = fingerprint(self.ref, self.ref_sim)
        assert got == want, _first_difference(got, want)
        assert self.sim.sent == self.ref_sim.sent
        for index, shard in enumerate(shard_views(self.sut)):
            cached = shard.table._views.get(compile_rule_plan)
            if cached is not None:
                self.compiled.add((index, cached[0]))

    @invariant()
    def running_counts(self):
        for datapath in (self.sut, self.ref):
            for shard in shard_views(datapath):
                tss = shard.megaflow.tss
                subtables = tss.subtables()
                assert tss.entry_count == sum(map(len, subtables))
                assert tss.mask_count == len(subtables)
                assert all(subtables)  # empties are destroyed
                assert shard.megaflow.entry_count == \
                    len(shard.megaflow.entries())
                emc = shard.microflow
                assert emc.occupancy == sum(map(len, emc._sets))
                assert all(len(bucket) <= emc.ways for bucket in emc._sets)
                # purges and flushes only ever shrink it
                assert emc.occupancy <= emc.insertions - emc.evictions

    @invariant()
    def alive_exactly_while_cached(self):
        """``alive`` is how an EMC slot or a simulator ledger learns its
        entry was evicted or replaced: every entry still referenced is
        alive exactly while its cache holds it."""
        sides = ((self.sut, self.sim, 0), (self.ref, self.ref_sim, 1))
        for datapath, sim, side in sides:
            shards = shard_views(datapath)
            held = {id(entry) for shard in shards
                    for entry in shard.megaflow.entries()}
            referenced = [
                *(slot.entry for shard in shards
                  for bucket in shard.microflow._sets for slot in bucket),
                *sim._attacker_entries.values(),
                *sim._victim_entries.values(),
                *(pair[side] for pairs in self.inserted for pair in pairs),
            ]
            for entry in referenced:
                assert entry.alive == (id(entry) in held), entry_view(entry)

    @invariant()
    def memo_answers_as_a_live_scan(self):
        """A scan memo outlives its burst, so it must be exact whenever
        it is current: every key a memo stamped at the live generation
        holds — every key its generation has answered, left by any
        burst or cache episode since, inserts absorbed or not —
        resolves to the entry, depth and subtable a live scan of the
        tables finds."""
        for shard in shard_views(self.sut):
            tss = shard.megaflow.tss
            if (getattr(tss, "_memo", None) is None
                    or tss._memo_generation != tss.generation):
                continue
            tables = tss.subtables()
            for packed, hit in tss._memo.items():
                got = _shallowest(packed, hit, tss._memo_written)
                want = _first_match(packed, tables, 0, len(tables))
                assert (got is None) == (want is None), packed
                if got is not None:
                    assert got.entry is want.entry, packed
                    assert got.tuples_scanned == want.tuples_scanned, packed
                    assert got.subtable is want.subtable, packed

    def teardown(self):
        # plan recompiles: versions compiled per shard, beyond the first
        versions = Counter(index for index, _version in self.compiled)
        CENSUS["recompiles " + self.config["engine"].__name__] += sum(
            n - 1 for n in versions.values())


def _machine_at(point):
    """The machine with ``point``'s axes fixed and the rest drawn, from a
    seed of its own: the derandomized seed hashes the class's source,
    which every point shares, so it would draw every point's
    operations alike."""

    @seed(zlib.crc32(point.encode()))
    class PinnedMachine(DifferentialMachine):
        @initialize(config=st.fixed_dictionaries({**_axes, **POINTS[point]}))
        def build(self, config):
            super().build(config)

    return PinnedMachine


@pytest.mark.parametrize("point", sorted(POINTS))
def test_every_point_of_the_product_leaves_what_the_reference_leaves(point):
    # a twelfth of the profile's examples at each point.  A failure is
    # shrunk and reported alone: the first state where the two part
    run_state_machine_as_test(_machine_at(point), settings=settings(
        max_examples=max(1, settings.default.max_examples // 12),
        stateful_step_count=25, report_multiple_bugs=False,
    ))
    CENSUS["points"] += 1


def test_the_points_reach_what_each_fast_path_is_there_for():
    """A differential is only worth its name over a corpus that reaches
    what each fast path is there for: floors over every point's run."""
    if CENSUS["points"] < len(POINTS):
        pytest.skip("the floors hold over every point's run, not a part")
    if HAVE_NUMPY:
        assert CENSUS["memo after insert"] * 4 >= CENSUS["memo lookups"] > 0, \
            CENSUS
        assert CENSUS["memo carried past a burst"] >= 10, CENSUS
    assert all(CENSUS[regime] >= 10 for regime in REPLAY_REGIMES), CENSUS
    assert CENSUS["unprobed bursts"] >= 10, CENSUS
    assert CENSUS["sweep skipped"] and CENSUS["sweep full"], CENSUS
    assert all(CENSUS["recompiles " + engine.__name__]
               for engine in ENGINES), CENSUS
