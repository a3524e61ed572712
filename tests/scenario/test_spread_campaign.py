"""The spread-campaign axis: hash-aware covert streams through the
Session timeline, with periodic live-RETA re-probing."""

import pytest

from repro.scenario import SCENARIOS, ScenarioSpec, Session


def sharded_spec(**overrides):
    settings = dict(
        surface="k8s",
        shards=2,
        duration=16.0,
        attack_start=4.0,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestSpecAxis:
    def test_fields_round_trip(self):
        spec = sharded_spec(attacker_strategy="spread", reprobe_interval=5.0)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.attacker_strategy == "spread"
        assert clone.reprobe_interval == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="attacker_strategy"):
            sharded_spec(attacker_strategy="psychic")
        with pytest.raises(ValueError, match="reprobe_interval"):
            sharded_spec(attacker_strategy="spread", reprobe_interval=-1.0)

    def test_reprobe_without_spread_rejected(self):
        """A re-probe interval on the naive stream would be a silent
        no-op — the spec refuses it outright."""
        with pytest.raises(ValueError, match="spread attacker"):
            sharded_spec(reprobe_interval=5.0)

    def test_preset_registered(self):
        spec = SCENARIOS.get("spread-campaign")
        assert spec.attacker_strategy == "spread"
        assert spec.reprobe_interval > 0
        assert spec.shards > 1
        spec.validate()


def naive_keys(session):
    """The surface's own stream: the paper's one key per mask."""
    return session.surface.covert_keys(
        session.dimensions, session.target, session.space
    )


class TestCovertStream:
    def test_naive_default_uses_base_keys(self):
        session = Session(sharded_spec())
        keys, refresh = session.covert_stream(session.build_datapath())
        assert keys == naive_keys(session)
        assert refresh is None

    def test_spread_steers_one_variant_per_shard(self):
        session = Session(sharded_spec(attacker_strategy="spread"))
        datapath = session.build_datapath()
        keys, refresh = session.covert_stream(datapath)
        assert len(keys) > len(naive_keys(session))  # ~one per mask per shard
        assert refresh is None  # reprobe_interval = 0: steer once
        shards = {datapath.shard_of(key) for key in keys}
        assert shards == {0, 1}

    def test_spread_with_reprobe_returns_refresh_hook(self):
        session = Session(
            sharded_spec(attacker_strategy="spread", reprobe_interval=5.0)
        )
        _keys, refresh = session.covert_stream(session.build_datapath())
        assert refresh is not None
        assert len(refresh()) > 0

    def test_spread_on_unsharded_falls_back_to_naive(self):
        session = Session(
            ScenarioSpec(surface="k8s", attacker_strategy="spread",
                         duration=10.0, attack_start=3.0)
        )
        keys, refresh = session.covert_stream(session.build_datapath())
        assert keys == naive_keys(session)
        assert refresh is None

    def test_reprobe_on_unsharded_spread_rejected(self):
        """spread+reprobe on a one-shard datapath would silently measure
        the naive baseline — the session refuses, like the spec does
        for naive+reprobe."""
        session = Session(
            ScenarioSpec(surface="k8s", attacker_strategy="spread",
                         reprobe_interval=5.0, duration=10.0,
                         attack_start=3.0)
        )
        with pytest.raises(ValueError, match="multi-shard"):
            session.covert_stream(session.build_datapath())


class TestReprobeTimeline:
    def test_reprobes_fire_on_the_grid(self):
        spec = sharded_spec(
            attacker_strategy="spread",
            reprobe_interval=4.0,
            rebalance_interval=3.0,
            workload_skew=1.1,
            duration=20.0,
        )
        session = Session(spec)
        simulator = session.simulator(session.build_datapath())
        simulator.run()
        # attack_start 4, interval 4, duration 20 -> reprobes at t=8,
        # 12, 16 (t=20 is the last tick's *end*)
        assert simulator.reprobes == 3

    def test_no_reprobe_without_interval(self):
        session = Session(sharded_spec(attacker_strategy="spread"))
        simulator = session.simulator(session.build_datapath())
        simulator.run()
        assert simulator.reprobes == 0

    def test_spread_without_reprobe_leaves_naive_arithmetic_alone(self):
        """The new axes at their defaults change nothing: a spec that
        never mentions them is bit-identical to one that sets them to
        the defaults explicitly."""
        base = sharded_spec()
        plain = Session(base).run()
        explicit = Session(
            base.evolve(attacker_strategy="naive", reprobe_interval=0.0)
        ).run()
        assert plain.series.rows == explicit.series.rows

    def test_reprobe_restores_spread_coverage_after_remap(self):
        """The E10 arms race inside one Session run: with auto-lb
        remapping and re-probing on, the attacker keeps (re)gaining
        shard coverage — the final per-shard mask counts stay at the
        full cross-product."""
        spec = sharded_spec(
            attacker_strategy="spread",
            reprobe_interval=3.0,
            rebalance_interval=3.0,
            workload_skew=1.2,
            duration=24.0,
        )
        session = Session(spec)
        result = session.run()
        datapath = result.datapath
        predicted = 512
        assert all(
            masks >= 0.9 * predicted
            for masks in datapath.shard_mask_counts
        )
        assert result.series.last("rebalances") > 0
