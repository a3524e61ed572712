"""The aggregate-only result mode (``materialize=False``).

The contract the runtime's wire format rides on: a batch processed
without materializing :class:`PacketResult` objects leaves *bit-
identical* switch state and aggregate counters — only the per-packet
result list is skipped.  Pinned across every backend family and both
engine branches.
"""

import dataclasses

import pytest

from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.perf.factory import sharded_switch_for_profile, switch_for_profile
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
        ("sharded-4", lambda: sharded_switch_for_profile(
            "kernel", space=space, shards=4, seed=7,
            rebalance_interval=0.0)),
    ]
    if HAVE_NUMPY:
        from repro.vec.engine import VecSwitch

        builders.append(("vec-kernel", lambda: switch_for_profile(
            "kernel", space=space, seed=7, switch_cls=VecSwitch)))
        builders.append(("vec-noemc", lambda: switch_for_profile(
            "kernel-noemc", space=space, seed=7, switch_cls=VecSwitch)))
    return builders


def _state(dp):
    return {
        "stats": dataclasses.asdict(dp.stats),
        "mask_count": dp.mask_count,
        "megaflow_count": dp.megaflow_count,
        "tss_lookups": dp.tss_lookups,
    }


class TestBitIdentity:
    def test_aggregate_matches_materialized_everywhere(self, k8s):
        """Same bursts, two instances, both modes: every aggregate
        counter and every piece of switch state matches.  Bursts cover
        the install lap, cache-hit revisits, a tiny burst (the vec
        engine's scalar fallback), and a post-idle-timeout lap."""
        space, rules, keys = k8s
        schedule = [
            (0.1, keys),         # install lap
            (0.2, keys[:200]),   # revisit: EMC/megaflow hits
            (0.3, keys[:4]),     # tiny burst (vec scalar fallback)
            (25.0, keys[::5]),   # past the idle timeout
        ]
        for name, build in _builders(space):
            materialized, aggregate = build(), build()
            materialized.add_rules(rules)
            aggregate.add_rules(rules)
            for now, burst in schedule:
                ref = materialized.process_batch(burst, now=now)
                agg = aggregate.process_batch(
                    burst, now=now, materialize=False
                )
                assert _counters(agg) == _counters(ref), (name, now)
                # the aggregate batch really skipped materialization
                assert agg.results == []
                assert len(agg) == len(ref) == ref.packets
                # install pairs ship in both modes (the simulator's
                # entry bookkeeping rides on them)
                assert [k.packed for k, _ in agg.installed] == [
                    k.packed for k, _ in ref.installed
                ]
            assert _state(aggregate) == _state(materialized), name

    def test_installed_pairs_identical_across_modes(self, k8s):
        """The install-tick pairs match key-for-key — including on the
        multi-shard path, where both modes group them per shard."""
        space, rules, keys = k8s
        a = sharded_switch_for_profile(
            "kernel", space=space, shards=4, seed=7, rebalance_interval=0.0
        )
        b = sharded_switch_for_profile(
            "kernel", space=space, shards=4, seed=7, rebalance_interval=0.0
        )
        a.add_rules(rules)
        b.add_rules(rules)
        ref = a.process_batch(keys, now=0.1)
        agg = b.process_batch(keys, now=0.1, materialize=False)
        assert [k.packed for k, _ in agg.installed] == [
            k.packed for k, _ in ref.installed
        ]
        assert len(agg.installed) == agg.upcalls

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


class TestRebalancerInteraction:
    def test_aggregate_mode_refuses_enabled_rebalancer(self, k8s):
        """Aggregate batches skip per-bucket load accounting, so a
        datapath with the auto-lb on rejects them instead of silently
        starving it."""
        space, rules, keys = k8s
        dp = sharded_switch_for_profile(
            "kernel", space=space, shards=4, seed=7, rebalance_interval=5.0
        )
        dp.add_rules(rules)
        with pytest.raises(ValueError, match="auto-lb"):
            dp.process_batch(keys[:32], now=0.1, materialize=False)
        # materialized batches still feed it fine
        dp.process_batch(keys[:32], now=0.1)

    def test_single_shard_aggregate_always_allowed(self, k8s):
        space, rules, keys = k8s
        dp = sharded_switch_for_profile(
            "kernel", space=space, shards=1, seed=7, rebalance_interval=0.0
        )
        dp.add_rules(rules)
        batch = dp.process_batch(keys[:32], now=0.1, materialize=False)
        assert batch.packets == 32
