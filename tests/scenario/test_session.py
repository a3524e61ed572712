"""Tests for the Session facade: probe mode, campaign mode, backends,
defenses, CSV hooks and the CLI scenario command."""

import dataclasses

import pytest

from repro.cli import main
from repro.experiments.fig2 import FIG2B_EXPECTED
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import DatapathConfig
from repro.scenario import SCENARIOS, ScenarioSpec, Session


@pytest.fixture(scope="module")
def calico_result():
    spec = SCENARIOS.get("calico").evolve(duration=50.0, attack_start=15.0)
    return Session(spec).run()


class TestProbeMode:
    def test_fig2_rows_match_paper(self):
        result = Session("fig2").run()
        assert result.probe is not None
        assert set(result.probe.rows) == set(FIG2B_EXPECTED)
        assert result.final_mask_count() == 8

    def test_series_unavailable_in_probe_mode(self):
        result = Session("fig2").run()
        with pytest.raises(ValueError):
            _ = result.series

    def test_measure_matches_prediction_through_full_pipeline(self):
        # 512 keys stay under the full-pipeline threshold: the whole
        # covert stream runs through process_batch and the measured
        # mask count still matches the closed form
        probe = Session(ScenarioSpec(surface="k8s")).measure()
        assert probe.predicted == probe.measured == 512
        assert probe.datapath.stats.packets == 512

    def test_probe_csv(self, tmp_path):
        result = Session("fig2").run()
        written = result.to_csv(tmp_path)
        text = written.read_text()
        assert written.name == "fig2.csv"
        assert "00001010" in text and "measured_masks=8" in text


class TestCampaignMode:
    def test_full_dos(self, calico_result):
        assert calico_result.final_mask_count() >= 8192
        assert calico_result.degradation() < 0.05

    def test_uniform_accessors(self, calico_result):
        assert calico_result.pre_attack_mean_bps() == pytest.approx(1e9, rel=0.05)
        assert len(calico_result.series) == 50
        stats = calico_result.scan_stats()
        assert stats["packets"] > 0

    def test_csv_dump(self, calico_result, tmp_path):
        written = calico_result.to_csv(tmp_path)
        assert written.name == "calico.csv"
        header = written.read_text().splitlines()[0]
        assert "victim_throughput_bps" in header and "masks" in header

    def test_render_mentions_masks_and_throughput(self, calico_result):
        text = calico_result.render()
        assert "victim throughput" in text
        assert "megaflow masks" in text

    def test_session_accepts_spec_dicts(self):
        result = Session(
            {"surface": "prefix8", "duration": 20.0, "attack_start": 5.0}
        ).run()
        assert result.final_mask_count() == 8

    def test_measure_only_surface_rejects_campaign(self):
        with pytest.raises(ValueError):
            Session("fig2").build_campaign()


class TestBackendsAndDefenses:
    def test_cacheless_backend_is_attack_independent(self):
        spec = SCENARIOS.get("calico-cacheless").evolve(
            duration=30.0, attack_start=8.0
        )
        result = Session(spec).run()
        # nothing to poison: throughput stays at the offered load
        assert result.degradation() > 0.95
        assert result.final_mask_count() < 16  # static rule groups

    def test_cacheless_rejects_install_guards(self):
        spec = ScenarioSpec(
            surface="calico", backend="cacheless", defenses=("mask-limit",)
        )
        with pytest.raises(ValueError):
            Session(spec).build_datapath()

    def test_guard_defense_bounds_masks(self):
        spec = SCENARIOS.get("calico-mask-limit").evolve(
            duration=40.0, attack_start=10.0
        )
        result = Session(spec).run()
        assert result.final_mask_count() <= 65
        assert result.defenses[0].label == "mask limit (64)"
        assert "degraded" in result.defenses[0].tradeoff

    def test_detector_defense_recovers(self):
        spec = SCENARIOS.get("calico-detector").evolve(
            duration=60.0, attack_start=15.0
        )
        result = Session(spec).run()
        assert result.final_mask_count() <= 8
        assert "mallory" in result.defenses[0].tradeoff
        # settle accounts for the response lag automatically
        assert result.degradation() > 0.9


class TestShardedSessions:
    def test_sharded_campaign_dilutes_the_naive_attack(self):
        base = SCENARIOS.get("k8s").evolve(duration=30.0, attack_start=8.0)
        plain = Session(base).run()
        sharded = Session(base.evolve(shards=4)).run()
        shards = sharded.datapath.shards
        assert len(shards) == 4
        # the paper's stream scatters: no shard carries the full 512
        assert sharded.final_mask_count() < 512
        assert sharded.datapath.total_mask_count >= 512
        # four cores + confined damage: the victim keeps more throughput
        assert sharded.degradation() > plain.degradation()

    def test_profile_default_shards_apply(self):
        session = Session(ScenarioSpec(surface="k8s", profile="netdev-pmd4"))
        datapath = session.build_datapath()
        assert len(datapath.shards) == 4

    def test_spec_shards_override_profile(self):
        session = Session(
            ScenarioSpec(surface="k8s", profile="netdev-pmd4", shards=2)
        )
        assert len(session.build_datapath().shards) == 2

    def test_sharded_probe_measures_total_masks(self):
        probe = Session(
            ScenarioSpec(surface="k8s", shards=4)
        ).measure()
        # masks scatter across shards but their sum matches the closed form
        assert probe.measured == probe.predicted == 512
        assert probe.datapath.mask_count < 512

    def test_cacheless_rejects_shards(self):
        spec = ScenarioSpec(surface="calico", backend="cacheless", shards=4)
        with pytest.raises(ValueError):
            Session(spec).build_datapath()

    def test_detector_defense_works_per_shard(self):
        spec = ScenarioSpec(
            surface="k8s",
            shards=2,
            defenses=("detector",),
            duration=40.0,
            attack_start=8.0,
        )
        result = Session(spec).run()
        # the detector observed each shard and evicted the tenant
        assert result.final_mask_count() <= 8
        assert "mallory" in result.defenses[0].tradeoff


class TestRebalanceSessions:
    """The E10 equivalence matrix: disabled rebalancing is pure
    plumbing, one shard has nothing to rebalance, and the skew/interval
    axes flow through spec → profile → datapath."""

    def test_disabled_rebalance_is_series_identical_to_default(self):
        base = SCENARIOS.get("k8s").evolve(
            duration=20.0, attack_start=6.0, shards=4
        )
        default = Session(base).run()
        disabled = Session(base.evolve(rebalance_interval=0.0)).run()
        assert default.series.columns == disabled.series.columns
        assert default.series.rows == disabled.series.rows
        assert default.scan_stats() == disabled.scan_stats()

    def test_one_shard_with_rebalance_on_matches_bare_switch(self):
        """A spec rejects the knob on one shard (the table below), so
        the one-shard dispatcher is built by hand: with the auto-lb on
        it still reproduces the bare switch's series exactly."""
        session = Session(
            SCENARIOS.get("k8s").evolve(duration=20.0, attack_start=6.0)
        )
        plain = session.run()
        one = DatapathConfig(
            session.profile, space=session.space, shards=1,
            seed=session.spec.seed, rebalance_interval=2.0
        ).dispatched(OvsSwitch)
        report = session.build_campaign(one).run()
        assert report.simulation.series.rows == plain.series.rows
        assert one.rebalancer.rebalances == 0  # nothing to move

    def test_skewed_workload_with_rebalance_really_remaps(self):
        spec = SCENARIOS.get("k8s").evolve(
            duration=16.0,
            attack_start=160.0,  # benign run: skew alone drives remaps
            shards=4,
            workload_skew=1.2,
            rebalance_interval=2.0,
        )
        result = Session(spec).run()
        datapath = result.datapath
        assert datapath.rebalancer.rebalances > 0
        assert datapath.rebalancer.buckets_moved > 0
        assert datapath.reta != [b % 4 for b in range(datapath.reta_size)]
        assert result.series.last("rebalances") > 0

    def test_skew_reduces_to_uniform_when_zero(self):
        spec = SCENARIOS.get("k8s").evolve(
            duration=12.0, attack_start=4.0, shards=4
        )
        a = Session(spec).run()
        b = Session(spec.evolve(workload_skew=0.0)).run()
        assert a.series.rows == b.series.rows

    def test_alb_profile_defaults(self):
        session = Session(ScenarioSpec(surface="k8s", profile="netdev-pmd4-alb"))
        datapath = session.build_datapath()
        assert len(datapath.shards) == 4
        assert datapath.rebalancer.interval == 5.0
        assert datapath.rebalancer.enabled

    def test_spec_overrides_profile_rebalance_and_reta(self):
        session = Session(
            ScenarioSpec(
                surface="k8s",
                profile="netdev-pmd4-alb",
                rebalance_interval=0.0,
                reta_size=64,
            )
        )
        datapath = session.build_datapath()
        assert not datapath.rebalancer.enabled
        assert datapath.reta_size == 64

    def test_cacheless_rejects_rebalance(self):
        spec = ScenarioSpec(
            surface="calico", backend="cacheless", rebalance_interval=5.0
        )
        with pytest.raises(ValueError):
            Session(spec).build_datapath()

    def test_rebalance_spec_round_trips(self):
        spec = ScenarioSpec(
            surface="k8s",
            shards=4,
            reta_size=256,
            rebalance_interval=3.5,
            workload_skew=1.1,
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        # defaults are omitted from the dict form
        assert "rebalance_interval" not in ScenarioSpec(surface="k8s").to_dict()

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(surface="k8s", rebalance_interval=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(surface="k8s", reta_size=-8)
        with pytest.raises(ValueError):
            ScenarioSpec(surface="k8s", workload_skew=-0.5)


class TestAutoLbTuningKnobs:
    """The pmd-auto-lb's one knob, ``rebalance_interval``, fails
    loudly on datapaths with no rebalancer; the trigger knobs it once
    had are unknown names everywhere."""

    @staticmethod
    def _config(runtime, **spec_fields):
        """(session, its datapath config moved onto ``runtime``)."""
        session = Session(ScenarioSpec(surface="k8s", **spec_fields))
        config = DatapathConfig.from_spec(
            session.spec, session.profile, session.space, "table"
        )
        return session, dataclasses.replace(config, runtime=runtime)

    @pytest.mark.parametrize(
        "changes, runtime, reason",
        [
            ({"rebalance_interval": 2.0}, "inline", "one shard"),
            ({"backend": "cacheless", "rebalance_interval": 5.0},
             "inline", "cacheless"),
            ({"shards": 2, "rebalance_interval": 5.0},
             "processes", "worker processes"),
        ],
        ids=[
            "ovs-interval", "cacheless-interval",
            "processes-interval",
        ],
    )
    def test_rebalancerless_datapaths_reject_the_knobs(
        self, changes, runtime, reason
    ):
        """The validation table's no-rebalancer rows: an explicit
        non-zero interval is an error naming the field and the reason."""
        session, config = self._config(runtime, **changes)
        with pytest.raises(ValueError,
                           match=f"rebalance_interval .*{reason}"):
            config.build()
        if runtime == "inline":
            with pytest.raises(ValueError, match="rebalance_interval"):
                session.build_datapath()

    @pytest.mark.parametrize(
        "retired", ["rebalance_improvement", "rebalance_load_floor"]
    )
    def test_the_trigger_knobs_are_unknown_spec_fields(self, retired):
        data = {**ScenarioSpec(surface="k8s", shards=4).to_dict(),
                retired: 0.0}
        with pytest.raises(ValueError,
                           match=f"unknown ScenarioSpec fields.*{retired}"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("shards, runtime", [(1, "inline"),
                                                 (2, "processes")])
    def test_profile_defaults_and_zeros_never_trigger_it(
        self, shards, runtime
    ):
        """netdev-pmd4-alb defaults to a 5 s auto-lb: on a datapath
        with no rebalancer the default is dropped, not rejected — and
        an explicit 0 ("off") is always accepted."""
        for changes in ({}, {"rebalance_interval": 0.0}):
            _session, config = self._config(
                runtime, profile="netdev-pmd4-alb", shards=shards, **changes
            )
            datapath = config.build()
            try:
                assert not hasattr(datapath, "rebalancer")
            finally:
                if runtime == "processes":
                    datapath.close()

    def test_cacheless_has_no_sharded_or_process_variant(self):
        _session, config = self._config("inline", backend="cacheless")
        for changes in ({"shards": 2}, {"runtime": "processes"}):
            with pytest.raises(ValueError, match="no sharded variant"):
                dataclasses.replace(config, **changes).build()

    @pytest.mark.parametrize("retired", ["sharded", "parallel", "ovs-tuple"])
    def test_retired_backend_names_are_plain_unknown_names(self, retired):
        """No alias table, no deprecation shim: the existing
        unknown-name error, listing the two engines."""
        with pytest.raises(KeyError, match=r"\['ovs', 'cacheless'\]"):
            Session(ScenarioSpec(surface="k8s", backend=retired))


class TestCliScenario:
    def test_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "cacheless" in out and "detector" in out
        assert "--shards" in out
        # the backend axis names the two engines and nothing else
        backends = next(line for line in out.splitlines()
                        if line.startswith("backends:"))
        assert backends.split(":")[1].split() == ["ovs,", "cacheless"]

    def test_shards_override(self, capsys):
        assert main(
            ["scenario", "k8s", "--shards", "2",
             "--duration", "15", "--attack-start", "5"]
        ) == 0
        assert "masks=" in capsys.readouterr().out

    def test_rebalance_overrides(self, capsys):
        assert main(
            ["scenario", "k8s", "--shards", "2",
             "--rebalance-interval", "2", "--workload-skew", "1.2",
             "--reta-size", "64", "--duration", "20", "--attack-start", "5"]
        ) == 0
        assert "masks=" in capsys.readouterr().out

    def test_run_named_scenario(self, capsys, tmp_path):
        assert (
            main(
                [
                    "scenario",
                    "prefix8",
                    "--duration",
                    "20",
                    "--attack-start",
                    "5",
                    "--csv",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "masks=" in out
        assert (tmp_path / "prefix8.csv").exists()

    @pytest.mark.parametrize("args, headline", [
        (["k8s-serve"], "pre=n/a post=1.000 Gbps\n"),
        (["calico", "--duration", "20"], "pre=1.00 Gbps post=n/a\n"),
        (["calico", "--attack-start", "0"], "pre=n/a post=0.007 Gbps\n"),
    ], ids=["k8s-serve", "calico-ends-before-its-attack",
            "calico-attacks-at-zero"])
    def test_a_window_with_no_sample_reads_n_a(self, capsys, args, headline):
        assert main(["scenario", *args]) == 0
        assert capsys.readouterr().out.endswith(headline)

    def test_keys_have_no_mode_to_pick(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "calico", "--key-mode", "tuple"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(["scenario", "--list"]) == 0
        assert "key" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--rebalance-improvement", "0.5"),
        ("--rebalance-load-floor", "1"),
    ])
    def test_the_auto_lb_trigger_has_no_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "calico", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_list_names_no_trigger_flag(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "--rebalance-interval" in out
        assert "--rebalance-improvement" not in out
        assert "--rebalance-load-floor" not in out

    def test_probe_scenario_via_cli(self, capsys):
        assert main(["scenario", "fig2"]) == 0
        assert "megaflow table" in capsys.readouterr().out

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "figure-null"])
        assert "fig3" in str(excinfo.value)

    def test_name_required_without_list(self):
        with pytest.raises(SystemExit):
            main(["scenario"])
