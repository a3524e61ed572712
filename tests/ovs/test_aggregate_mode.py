"""The aggregate-only result mode (``materialize=False``).

The contract the runtime's wire format rides on: a batch processed
without materializing :class:`PacketResult` objects leaves *bit-
identical* switch state and aggregate counters — only the per-packet
result list is skipped.  The differential machine
(``tests/test_differential_machine.py``) holds every inline engine to
it in both modes; here are the cache-less backend, the bulk folds, the
rebalancer's refusal and what an EMC-off burst costs.
"""

from collections import Counter

import pytest

import repro.ovs.tss
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig, switch_for_profile
from repro.scenario.datapath import CachelessDatapath
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
        from repro.defense.cacheless import CachelessSwitch  # noqa: F401

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
    def test_an_all_hit_burst_is_one_run_with_no_per_hit_call(
            self, k8s, monkeypatch, engine):
        """An EMC that holds nothing and cannot store makes a burst's
        repeats change no result, so they cost nothing either: the
        burst is one run — no break at a repeat — with no EMC insert and
        no entry ``touch`` per hit, and the vec engine builds one
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
        _count(monkeypatch, counts, OvsSwitch, "_flush_run")
        _count(monkeypatch, counts, MicroflowCache, "insert")
        _count(monkeypatch, counts, MegaflowEntry, "touch")
        for module in modules:
            _count(monkeypatch, counts, module, "TssLookupResult")
        batch = switch.process_batch(burst, now=0.2, materialize=False)
        assert batch.megaflow_hits == self.N
        assert (counts["_flush_run"], counts["insert"], counts["touch"]) \
            == (1, 0, 0)
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
