"""Fleet session tests: determinism, N=1 equivalence, mobility,
quarantine, and the fabric-counter surfacing."""

import warnings

import pytest

from repro.fleet import FleetSession, FleetSpec
from repro.scenario import SCENARIOS, Session
from repro.vec import HAVE_NUMPY


def base_scenario(duration=16.0, attack_start=5.0, **overrides):
    return SCENARIOS.get("k8s").evolve(
        duration=duration, attack_start=attack_start, **overrides
    )


def deepscan(backend):
    """The datapath-replay campaign (every covert tick a real
    ``process_batch`` burst), shortened to reach 512 masks and stop."""
    return SCENARIOS.get("k8s-deepscan").evolve(
        backend=backend, duration=14.0, attack_start=4.0
    )


def run_quiet(spec, order=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return FleetSession(spec).run(node_step_order=order)


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = FleetSpec(
            scenario=base_scenario(),
            nodes=5,
            mobility="staggered",
            dwell=3.0,
            fleet_defense="quarantine",
        )
        clone = FleetSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_accepts_scenario_dict(self):
        spec = FleetSpec(scenario=base_scenario().to_dict(), nodes=2)
        assert spec.scenario.surface == "k8s"

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(scenario=base_scenario(), nodes=0)
        with pytest.raises(ValueError):
            FleetSpec(scenario=base_scenario(), dwell=0.0)
        with pytest.raises(ValueError):
            FleetSpec(scenario=base_scenario(), fleet_defense="prayers")
        with pytest.raises(KeyError):
            FleetSpec(scenario=base_scenario(), mobility="teleport").validate()

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FleetSpec fields"):
            FleetSpec.from_dict(
                {"scenario": base_scenario().to_dict(), "warp": 9}
            )


class TestSingleNodeEquivalence:
    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(base_scenario(), id="k8s"),
            pytest.param(deepscan("ovs"), id="k8s-deepscan-ovs"),
            pytest.param(
                deepscan("ovs-vec"),
                id="k8s-deepscan-ovs-vec",
                marks=pytest.mark.skipif(
                    not HAVE_NUMPY, reason="numpy not installed"
                ),
            ),
        ],
    )
    def test_one_node_static_fleet_is_bitwise_session(self, scenario):
        """The tentpole contract: the fleet layer is pure orchestration
        — one node under a static attacker IS the classic Session run,
        row for row, on the model replay and on the datapath replay of
        either engine."""
        plain = Session(scenario).run()
        session = FleetSession(
            FleetSpec(scenario=scenario, nodes=1, mobility="static")
        )
        fleet = session.run()
        assert fleet.node_series[0].columns == plain.series.columns
        assert fleet.node_series[0].rows == plain.series.rows
        assert fleet.final_node_masks[0] == plain.final_mask_count()
        # the fabric / mailbox layer touched the node's datapath only
        # through the per-tick step: same packets, same tuples scanned
        scan = plain.scan_stats()
        node_stats = session.nodes[0].datapath.stats.snapshot()
        assert scan and {name: node_stats[name] for name in scan} == scan

    def test_one_node_fleet_with_defense_matches_session(self):
        scenario = base_scenario(defenses=("mask-limit",))
        plain = Session(scenario).run()
        fleet = FleetSession(
            FleetSpec(scenario=scenario, nodes=1, mobility="static")
        ).run()
        assert fleet.node_series[0].rows == plain.series.rows


class TestDeterminism:
    def test_same_spec_same_seed_same_series(self):
        spec = FleetSpec(
            scenario=base_scenario(),
            nodes=3,
            mobility="rolling",
            dwell=3.0,
            fleet_defense="quarantine",
            detect_interval=3.0,
        )
        first = run_quiet(spec)
        second = run_quiet(spec)
        assert first.aggregate.rows == second.aggregate.rows
        for a, b in zip(first.node_series, second.node_series):
            assert a.rows == b.rows
        assert [m.node for m in first.migrations] == [
            m.node for m in second.migrations
        ]

    def test_step_scheduling_order_is_irrelevant(self):
        """Node-count-preserving event reordering: scheduling same-tick
        node steps in reverse must not change any series."""
        spec = FleetSpec(
            scenario=base_scenario(),
            nodes=3,
            mobility="rolling",
            dwell=3.0,
            fleet_defense="quarantine",
            detect_interval=3.0,
        )
        forward = run_quiet(spec)
        backward = run_quiet(spec, order=[2, 1, 0])
        assert forward.aggregate.rows == backward.aggregate.rows
        for a, b in zip(forward.node_series, backward.node_series):
            assert a.rows == b.rows

    def test_bad_step_order_rejected(self):
        spec = FleetSpec(scenario=base_scenario(), nodes=2)
        with pytest.raises(ValueError, match="node_step_order"):
            FleetSession(spec).run(node_step_order=[0, 0])

    def test_session_runs_once(self):
        session = FleetSession(
            FleetSpec(scenario=base_scenario(duration=6.0, attack_start=2.0),
                      nodes=1, mobility="static")
        )
        session.run()
        with pytest.raises(RuntimeError, match="runs once"):
            session.run()


class TestMobilityDynamics:
    def test_rolling_poisons_in_visit_order_then_decays(self):
        spec = FleetSpec(
            # duration ends before the walk wraps back to n0
            scenario=base_scenario(duration=28.0, attack_start=5.0),
            nodes=4,
            mobility="rolling",
            dwell=6.0,
        )
        result = run_quiet(spec)
        threshold = 0.9 * result.predicted_masks
        # nodes are poisoned strictly in visit order
        t1 = result.time_to_poison(1)
        t2 = result.time_to_poison(2)
        assert t1 is not None and t2 is not None and t1 < t2
        # the walk left n0 at t=11 and never returned; its masks idled
        # out (the idle timeout is 10 s)
        assert result.final_node_masks[0] < threshold
        # the most recently visited node is still hot
        hot = max(range(4), key=result.final_node_masks.__getitem__)
        assert result.final_node_masks[hot] >= threshold

    def test_coordinated_poisons_all_nodes_at_once(self):
        spec = FleetSpec(
            scenario=base_scenario(duration=14.0, attack_start=4.0),
            nodes=3,
            mobility="coordinated",
        )
        result = run_quiet(spec)
        threshold = 0.9 * result.predicted_masks
        assert all(m >= threshold for m in result.final_node_masks)
        assert result.poisoned_at_end() == 3

    def test_spread_payload_poisons_every_shard_of_visited_nodes(self):
        """The PR 3/4 hash-aware payload rides the fleet walk: every PMD
        shard of an attacked node receives the full cross-product."""
        spec = FleetSpec(
            scenario=base_scenario(
                duration=12.0,
                attack_start=3.0,
                shards=2,
                attacker_strategy="spread",
            ),
            nodes=2,
            mobility="coordinated",
        )
        session = FleetSession(spec)
        result = session.run()
        threshold = 0.9 * result.predicted_masks
        for node in session.nodes:
            assert all(
                masks >= threshold
                for masks in node.datapath.shard_mask_counts
            )

    def test_fleet_throughput_is_sum_of_nodes(self):
        spec = FleetSpec(
            scenario=base_scenario(duration=8.0, attack_start=3.0),
            nodes=2,
            mobility="static",
        )
        result = run_quiet(spec)
        for row_index in range(len(result.aggregate)):
            total = result.aggregate.rows[row_index][
                result.aggregate.columns.index("fleet_throughput_bps")
            ]
            per_node = sum(
                series.rows[row_index][
                    series.columns.index("victim_throughput_bps")
                ]
                for series in result.node_series
            )
            assert total == pytest.approx(per_node)


class TestQuarantine:
    def quarantine_spec(self, **overrides):
        settings = dict(
            scenario=base_scenario(duration=24.0, attack_start=3.0),
            nodes=3,
            mobility="rolling",
            dwell=5.0,
            fleet_defense="quarantine",
            detect_interval=2.0,
        )
        settings.update(overrides)
        return FleetSpec(**settings)

    def test_quarantine_migrates_and_counts_undeliverable(self):
        session = FleetSession(self.quarantine_spec())
        with pytest.warns(RuntimeWarning, match="undeliverable"):
            result = session.run()
        assert result.migrations, "the detector never quarantined anybody"
        first = result.migrations[0]
        assert first.node == "n0"  # the walk starts at n0
        assert first.flows_moved > 0 and first.migrated_to
        # bursts to the detached node were dropped loudly, not silently
        assert result.fabric["undeliverable"] > 0
        assert result.quarantined
        # the aggregate series carries the fabric counters
        assert result.aggregate.last("fabric_undeliverable") == (
            result.fabric["undeliverable"]
        )

    def test_victim_load_redistributes_to_survivors(self):
        session = FleetSession(self.quarantine_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            session.run()
        quarantined = [n for n in session.nodes if n.quarantined]
        survivors = [n for n in session.nodes if not n.quarantined]
        assert quarantined, "expected at least one quarantine"
        for node in quarantined:
            assert node.victim_share == 0.0
            assert node.simulator.victim_keys == []
        if survivors:
            expected = len(session.nodes) / len(survivors)
            for node in survivors:
                assert node.victim_share == pytest.approx(expected)
                # migrated flows now live (and refresh) on the survivor
                assert len(node.simulator.victim_keys) > 4

    def test_same_round_flagged_nodes_never_receive_migrations(self):
        """When one detector round flags several nodes (coordinated
        attack, low threshold), none of them may be picked as a
        migration destination by another member of the round — the
        flows would land on a detached node and strand."""
        spec = FleetSpec(
            scenario=base_scenario(duration=16.0, attack_start=3.0),
            nodes=3,
            mobility="coordinated",
            fleet_defense="quarantine",
            detect_threshold=8,
            detect_interval=2.0,
        )
        session = FleetSession(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = session.run()
        # the coordinated attack poisons everybody between two detector
        # rounds: all three are flagged together, nobody can absorb the
        # load, and no migration may claim otherwise
        same_round = [m for m in result.migrations if m.t == result.migrations[0].t]
        assert len(same_round) == 3
        flagged_names = {m.node for m in same_round}
        for migration in same_round:
            assert not (set(migration.migrated_to) & flagged_names)
        # nothing was adopted by a quarantined node
        for node in session.nodes:
            assert node.simulator.victim_keys == []

    def test_final_tick_quarantine_claims_no_delivery(self):
        """A quarantine with no tick left to drain into must not count
        fabric deliveries or list destinations."""
        spec = FleetSpec(
            # detector first fires on the run's last observe
            scenario=base_scenario(duration=10.0, attack_start=2.0),
            nodes=2,
            mobility="coordinated",
            fleet_defense="quarantine",
            detect_interval=10.0,
        )
        result = run_quiet(spec)
        assert result.migrations, "the last-tick detector round never fired"
        for migration in result.migrations:
            assert migration.migrated_to == ()

    def test_no_defense_means_no_migrations(self):
        result = run_quiet(self.quarantine_spec(fleet_defense="none"))
        assert not result.migrations
        assert result.fabric["undeliverable"] == 0

    def test_mask_limit_guard_pressure_triggers_fleet_detector(self):
        """A budget-capped node never grows its mask count, but its
        guard counters leak the distress — the fleet detector reads
        them and quarantines anyway."""
        spec = self.quarantine_spec(
            scenario=base_scenario(
                duration=16.0, attack_start=3.0, defenses=("mask-limit",)
            ),
            nodes=2,
            mobility="static",
        )
        session = FleetSession(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = session.run()
        assert "n0" in result.quarantined
        # capped: poisoned by the guard's lights, not the mask count
        assert result.final_node_masks[0] < 0.9 * result.predicted_masks


class TestResultSurface:
    def test_render_and_csv(self, tmp_path):
        spec = FleetSpec(
            scenario=base_scenario(duration=8.0, attack_start=3.0),
            nodes=2,
            mobility="rolling",
            dwell=3.0,
        )
        result = run_quiet(spec)
        text = result.render()
        assert "per-node outcome" in text and "fleet=2" in text
        written = result.to_csv(tmp_path / "out")
        assert written.exists()
        per_node = list((tmp_path / "out").glob(f"{spec.name}-n*.csv"))
        assert len(per_node) == 2

    def test_poison_curve_is_monotone(self):
        spec = FleetSpec(
            scenario=base_scenario(duration=20.0, attack_start=3.0),
            nodes=3,
            mobility="staggered",
            dwell=4.0,
        )
        result = run_quiet(spec)
        curve = result.poison_curve()
        times = [t for _k, t in curve if t is not None]
        assert times == sorted(times)
        assert result.time_to_poison(1) is not None

    def test_headline_mentions_fleet_shape(self):
        spec = FleetSpec(
            scenario=base_scenario(duration=6.0, attack_start=2.0),
            nodes=2,
            mobility="coordinated",
        )
        result = run_quiet(spec)
        assert "fleet=2" in result.headline()
        assert "mobility=coordinated" in result.headline()
