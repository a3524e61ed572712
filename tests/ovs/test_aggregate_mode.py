"""The aggregate-only result mode (``materialize=False``).

The contract the runtime's wire format rides on: a batch processed
without materializing :class:`PacketResult` objects leaves *bit-
identical* switch state and aggregate counters — only the per-packet
result list is skipped.  The differential machine
(``tests/test_differential_machine.py``) holds every inline engine to
it in both modes; here are the cache-less backend, the bulk folds, the
rebalancer's refusal and what an EMC-off burst costs.
"""

import dataclasses
from collections import Counter
from types import MethodType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.ovs.tss
from repro.cms.base import PRIORITY_BASELINE_FORWARD
from repro.flow.actions import Output
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.obs import vec_tss_paths
from repro.ovs.stats import COUNTERS
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.defense.cacheless import CachelessDatapath
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec
from repro.testing import fingerprint, oracles
from repro.testing.fingerprint import entry_view
from repro.vec import HAVE_NUMPY

AGGREGATE_FIELDS = (
    "packets",
    "tuples_scanned",
    "hash_probes",
    "forwarded",
    "drops",
    "upcalls",
    "emc_hits",
    "megaflow_hits",
)


@pytest.fixture(scope="module")
def k8s():
    session = Session(ScenarioSpec(surface="k8s", profile="kernel"))
    rules = session.surface.compile_rules(
        session.policy, session.target, session.space
    )
    keys = session.surface.covert_keys(
        session.dimensions, session.target, session.space
    )
    return session.space, rules, keys


def _counters(batch):
    return tuple(getattr(batch, f) for f in AGGREGATE_FIELDS)


def _builders(space):
    """(name, factory) pairs covering every backend family."""
    builders = [
        ("ovs-kernel", lambda: switch_for_profile(
            "kernel", space=space, seed=7)),
        ("ovs-noemc", lambda: switch_for_profile(
            "kernel-noemc", space=space, seed=7)),
        ("sharded-4", lambda: DatapathConfig(
            KERNEL_PROFILE, space, shards=4, seed=7,
            rebalance_interval=0.0).dispatched(OvsSwitch)),
    ]
    if HAVE_NUMPY:
        from repro.vec.engine import VecSwitch

        builders.append(("vec-kernel", lambda: switch_for_profile(
            "kernel", space=space, seed=7, switch_cls=VecSwitch)))
        builders.append(("vec-noemc", lambda: switch_for_profile(
            "kernel-noemc", space=space, seed=7, switch_cls=VecSwitch)))
    return builders


class TestBitIdentity:
    def test_cacheless_aggregate_matches(self, k8s):
        space, _rules, keys = k8s

        def build():
            dp = CachelessDatapath(space, name="agg-test")
            session = Session(ScenarioSpec(surface="k8s"))
            dp.add_rules(
                session.surface.compile_rules(
                    session.policy, session.target, session.space
                )
            )
            return dp

        materialized, aggregate = build(), build()
        ref = materialized.process_batch(keys[:128], now=0.1)
        agg = aggregate.process_batch(keys[:128], now=0.1, materialize=False)
        assert _counters(agg) == _counters(ref)
        assert agg.results == []
        assert aggregate.tss_lookups == materialized.tss_lookups


class TestBatchResult:
    def test_len_counts_packets_not_results(self):
        batch = BatchResult()
        batch.tally(LookupPath.MICROFLOW, True)
        batch.tally(LookupPath.MEGAFLOW, False, tuples_scanned=3,
                    hash_probes=3)
        assert len(batch) == 2
        assert batch.results == []
        assert batch.forwarded == 1 and batch.drops == 1

    def test_bulk_folds_equal_the_tally_of_the_results(self, k8s):
        """``tally`` is the one per-packet fold; the switch's per-chunk
        and per-hit-run folds add a path's sums in bulk.  Re-tallying a
        materialized batch's own results packet by packet must land on
        the counters the pipeline folded."""
        space, rules, keys = k8s
        for name, build in _builders(space):
            switch = build()
            switch.add_rules(rules)
            for now, burst in ((0.1, keys), (0.2, keys[:200] * 2)):
                batch = switch.process_batch(burst, now=now)
                refold = BatchResult()
                for result in batch.results:
                    refold.tally(result.path, result.forwarded,
                                 result.tuples_scanned, result.hash_probes)
                assert _counters(refold) == _counters(batch), (name, now)


class TestStatsFoldOncePerBurst:
    """``stats`` moves by exactly the burst's counters: the pipeline
    counts into the burst's :class:`BatchResult` only, and the datapath
    adds it to ``stats`` once, at the end of the burst."""

    #: per-shard megaflow budget: the first burst's upcalls overflow it
    FLOW_LIMIT = 8

    def _datapaths(self, space):
        profile = dataclasses.replace(KERNEL_PROFILE,
                                      flow_limit=self.FLOW_LIMIT)
        datapaths = [
            ("ovs", lambda: switch_for_profile(profile, space=space,
                                               seed=7)),
            ("sharded-2", lambda: DatapathConfig(
                profile, space, shards=2, seed=7,
                rebalance_interval=0.0).dispatched(OvsSwitch)),
            ("cacheless", lambda: CachelessDatapath(space)),
        ]
        if HAVE_NUMPY:
            from repro.vec.engine import VecSwitch

            datapaths.append(("vec", lambda: switch_for_profile(
                profile, space=space, seed=7, switch_cls=VecSwitch)))
        return datapaths

    @pytest.mark.parametrize("materialize", [True, False])
    def test_the_stats_delta_is_the_burst(self, k8s, materialize):
        space, rules, keys = k8s
        for name, build in self._datapaths(space):
            datapath = build()
            datapath.add_rules(rules)

            def burst(keys, now):
                before = [getattr(datapath.stats, f) for f in COUNTERS]
                batch = datapath.process_batch(keys, now=now,
                                               materialize=materialize)
                delta = [getattr(datapath.stats, f) - was
                         for f, was in zip(COUNTERS, before)]
                assert delta == [getattr(batch, f) for f in COUNTERS], (
                    name, now)
                return batch

            # installs until the flow limit, then rejected upcalls
            first = burst(keys[:64], 0.1)
            installed = [key for key, _entry in first.installed]
            # what it installed, served by the EMC alone
            hits = burst(installed, 0.2)
            # one more key the full cache cannot take
            rejected = burst(keys[-1:], 0.3)
            if datapath.has_flow_cache:
                assert first.upcalls_rejected > 0, name
                assert hits.emc_hits == hits.packets == len(installed), name
                assert rejected.upcalls_rejected == 1, name
            else:
                assert first.packets == 64 and not installed


def _count(monkeypatch, counts, owner, name):
    """Count the calls to ``owner.<name>`` in ``counts[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestEmcOffBurst:
    #: distinct keys, and the burst: every one of them N // D times, in
    #: laps, so each lap repeats every key of the one before
    D, N = 32, 256

    @pytest.mark.parametrize("engine", ["OvsSwitch", "VecSwitch"]
                             if HAVE_NUMPY else ["OvsSwitch"])
    def test_an_all_hit_burst_is_credited_once_per_entry(
            self, k8s, monkeypatch, engine):
        """An EMC that holds nothing and cannot store makes a burst's
        repeats change no result, so they cost nothing either: the
        burst has no upcall, so one summed credit covers it, with no
        EMC insert and no entry ``touch`` per hit.  ``_credit`` takes
        ``(answer, count)`` pairs: the scalar engine's key-by-key
        stretch comes merged by entry, one pair per distinct entry; the
        vec engine answers the burst counted from its exact memo — one
        answer per distinct key, paired with the key's count — and its
        ``memo`` path grows by one per lookup."""
        space, rules, keys = k8s
        modules = [repro.ovs.tss]
        switch_cls = OvsSwitch
        if engine == "VecSwitch":
            import repro.vec.engine as vec_engine

            modules.append(vec_engine)
            switch_cls = vec_engine.VecSwitch
        switch = switch_for_profile("kernel-noemc", space=space, seed=7,
                                    switch_cls=switch_cls)
        switch.add_rules(rules)
        distinct = keys[:self.D]
        switch.process_batch(distinct, now=0.1, materialize=False)
        burst = distinct * (self.N // self.D)
        counts = Counter()
        credited = []
        tss = switch.megaflow.tss
        credit = tss._credit
        monkeypatch.setattr(tss, "_credit", lambda pairs, *args: credited.append(
            list(pairs)) or credit(pairs, *args))
        _count(monkeypatch, counts, MicroflowCache, "insert")
        _count(monkeypatch, counts, MegaflowEntry, "touch")
        for module in modules:
            _count(monkeypatch, counts, module, "TssLookupResult")
        memo = getattr(tss, "path_lookups", Counter())["memo"]
        batch = switch.process_batch(burst, now=0.2, materialize=False)
        assert batch.megaflow_hits == self.N
        assert len(credited) == 1
        pairs = credited[0]
        assert sum(count for _answer, count in pairs) == self.N
        assert (counts["insert"], counts["touch"]) == (0, 0)
        if engine == "VecSwitch":
            assert [count for _answer, count in pairs] == \
                [self.N // self.D] * self.D
            assert counts["TssLookupResult"] <= self.D
            assert tss.path_lookups["memo"] - memo == self.N
        else:
            entries = {id(answer.entry) for answer, _count in pairs}
            assert len(entries) == len(pairs) == self.D


#: bursts each engine's walk answered counted, and bursts it counted but
#: then walked key by key, over every example of the property below
COUNTED: Counter = Counter()
ENGINES = ["OvsSwitch", "VecSwitch"] if HAVE_NUMPY else ["OvsSwitch"]
#: covert keys installed before the first burst: enough megaflows that
#: the vec engine's pre-scan pays for a burst of a few distinct keys
INSTALLED = 256
#: the keys the laps are drawn from: installed covert keys and victim
#: flows (several share one megaflow), and keys never installed, which
#: upcall when a burst sends them mid-lap
LAP_KEYS, VICTIMS, FRESH = 24, 8, 32


def _victim_rule(session):
    return FlowRule(
        FlowMatch(session.space, {"eth_type": (0x0800, 0xFFFF),
                                  "ip_dst": (0x0A000200, 0xFFFFFFFF)}),
        Output(7), priority=PRIORITY_BASELINE_FORWARD, tenant="victim",
    )


@pytest.fixture(scope="module")
def laps():
    session = Session(ScenarioSpec(surface="k8s", profile="kernel"))
    rules = session.surface.compile_rules(
        session.policy, session.target, session.space
    ) + [_victim_rule(session)]
    covert = session.surface.covert_keys(
        session.dimensions, session.target, session.space
    )
    victims = [key.replace(tp_src=key.get("tp_src") + 16 * n)
               for n in range(VICTIMS // 4) for key in session.victim_keys()]
    pool = covert[:LAP_KEYS] + victims
    return session.space, rules, covert[:INSTALLED], pool, \
        covert[INSTALLED:INSTALLED + FRESH]


_burst_steps = st.lists(st.tuples(
    # one lap: distinct keys of the pool, then some of them again
    st.lists(st.integers(0, LAP_KEYS + VICTIMS - 1), min_size=4,
             max_size=16, unique=True),
    st.lists(st.integers(0, 15), max_size=4),
    st.integers(1, 8),  # laps
    # keys never installed, each sent once at a position of the burst
    st.just([]) | st.lists(st.tuples(st.integers(0, 127),
                                     st.integers(0, FRESH - 1)),
                           min_size=1, max_size=2),
    # seconds since the last burst: none, a sweep (a ranked re-sort),
    # and one that idles out what the burst before did not send
    st.sampled_from([0.05, 0.6, 6.0]),
    st.sampled_from([None] * 4 + ["victim", "mallory"]),  # evict_tenant
    st.sampled_from([False, False, True]),  # materialize
), min_size=2, max_size=6)


def _view(batch):
    return ([getattr(batch, name) for name in COUNTERS],
            [(r.action, r.path, r.tuples_scanned, r.hash_probes,
              None if r.entry is None else entry_view(r.entry))
             for r in batch.results],
            [(key.packed, entry_view(entry)) for key, entry in batch.installed])


@pytest.mark.parametrize("engine", ENGINES)
@given(config=st.sampled_from([("insertion", False), ("ranked", False),
                               ("insertion", True), ("ranked", True)]),
       steps=_burst_steps)
def test_a_counted_burst_leaves_what_per_key_lookups_leave(
        laps, engine, config, steps):
    """EMC-off bursts built as laps of a key list with repeats, keys
    that upcall mid-lap, entries killed by an idle sweep or
    ``evict_tenant``, ranked order with its re-sorts, staged lookup:
    the walk — which answers a burst counted where its tuple space can
    — leaves what ``oracles.resolve_per_key`` leaves, burst for burst,
    and the same ``vec_tss_paths`` as the key-by-key walk."""
    space, rules, installed, pool, fresh = laps
    scan_order, staged = config
    switch_cls = OvsSwitch
    if engine == "VecSwitch":
        from repro.vec.engine import VecSwitch as switch_cls

    def build():
        switch = switch_for_profile(
            "kernel-noemc", space=space, seed=7, switch_cls=switch_cls,
            scan_order=scan_order, staged_lookup=staged)
        switch.add_rules(rules)
        for key in installed + pool[LAP_KEYS:]:
            switch.handle_miss(key, 0.0)
        return switch

    walk, oracle, uncounted = build(), build(), build()
    oracle._resolve = MethodType(oracles.resolve_per_key, oracle)
    # the same walk, every burst key by key
    uncounted.megaflow.tss.count_burst = lambda keys: None
    tss = walk.megaflow.tss
    tally = tss._tally

    def census(counts):
        tallied = tally(counts)
        COUNTED[engine, "counted" if tallied else "declined"] += 1
        return tallied

    tss._tally = census
    now = 0.0
    for lap, again, repeat, sent, gap, evict, materialize in steps:
        now += gap
        lap = lap + [lap[i % len(lap)] for i in again]
        burst = [pool[i] for i in lap] * repeat
        for at, i in sent:
            burst.insert(at % (len(burst) + 1), fresh[i])
        views = []
        for switch in (walk, oracle, uncounted):
            if evict:
                switch.megaflow.evict_tenant(evict)
            views.append(_view(switch.process_batch(
                burst, now=now, materialize=materialize)))
        assert views[0] == views[1] == views[2], burst
        assert fingerprint(walk) == fingerprint(oracle) == \
            fingerprint(uncounted), burst
        assert vec_tss_paths(walk) == vec_tss_paths(uncounted), burst
    COUNTED[engine, "examples"] += 1


def test_the_counted_path_ran():
    """The property above reaches what it is for: the vec engine
    answers bursts counted, and declines some it counted (a key that
    misses, an absorbed write) to walk them key by key."""
    if not all(COUNTED[engine, "examples"] for engine in ENGINES):
        pytest.skip("the floor holds over both engines' runs, not a part")
    if HAVE_NUMPY:
        assert COUNTED["VecSwitch", "counted"] >= 20, COUNTED
        assert COUNTED["VecSwitch", "declined"] >= 10, COUNTED
    # the scalar tuple space answers every burst key by key
    assert not COUNTED["OvsSwitch", "counted"], COUNTED


class TestRebalancerInteraction:
    def test_aggregate_mode_refuses_enabled_rebalancer(self, k8s):
        """Aggregate batches skip per-bucket load accounting, so a
        datapath with the auto-lb on rejects them instead of silently
        starving it."""
        space, rules, keys = k8s
        dp = DatapathConfig(KERNEL_PROFILE, space, shards=4, seed=7,
                            rebalance_interval=5.0).dispatched(OvsSwitch)
        dp.add_rules(rules)
        with pytest.raises(ValueError, match="auto-lb"):
            dp.process_batch(keys[:32], now=0.1, materialize=False)
        # materialized batches still feed it fine
        dp.process_batch(keys[:32], now=0.1)

    def test_single_shard_aggregate_always_allowed(self, k8s):
        space, rules, keys = k8s
        dp = DatapathConfig(KERNEL_PROFILE, space, shards=1, seed=7,
                            rebalance_interval=0.0).dispatched(OvsSwitch)
        dp.add_rules(rules)
        batch = dp.process_batch(keys[:32], now=0.1, materialize=False)
        assert batch.packets == 32
