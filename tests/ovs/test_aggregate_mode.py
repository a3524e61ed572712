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

import pytest

import repro.ovs.tss
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.ovs.stats import COUNTERS
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.defense.cacheless import CachelessDatapath
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec
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
        burst has no upcall, so one summed credit covers it — one
        ``(answer, count)`` pair per distinct entry — with no EMC insert
        and no entry ``touch`` per hit, and the vec engine builds one
        answer per distinct key."""
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
        monkeypatch.setattr(tss, "_credit", lambda *args: credited.append(
            credit(*args)) or credited[-1])
        _count(monkeypatch, counts, MicroflowCache, "insert")
        _count(monkeypatch, counts, MegaflowEntry, "touch")
        for module in modules:
            _count(monkeypatch, counts, module, "TssLookupResult")
        batch = switch.process_batch(burst, now=0.2, materialize=False)
        assert batch.megaflow_hits == self.N
        assert len(credited) == 1
        entries = {id(answer.entry) for answer, _count in credited[0]}
        assert len(entries) == len(credited[0])
        assert sum(count for _, count in credited[0]) == self.N
        assert (counts["insert"], counts["touch"]) == (0, 0)
        if engine == "VecSwitch":
            assert counts["TssLookupResult"] <= self.D


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
