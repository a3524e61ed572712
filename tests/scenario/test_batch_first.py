"""Batch-first end-to-end: the datapath covert-replay mode, the
deep-scan preset, and the bit-identity of vec-backed simulator and
fleet runs against the scalar reference — the engine a platform
without NumPy runs (``repro.vec.HAVE_NUMPY`` patched false)."""

import pytest

import repro.vec
from repro.fleet import FleetSession, FleetSpec
from repro.perf.simulator import DataplaneSimulator
from repro.perf.costmodel import CostModel
from repro.perf.workload import VictimWorkload
from repro.scenario import SCENARIOS, ScenarioSpec, Session
from repro.vec import HAVE_NUMPY

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                    reason="numpy not installed")


def deepscan(duration=12.0, attack_start=4.0, **overrides):
    return SCENARIOS.get("k8s-deepscan").evolve(
        duration=duration, attack_start=attack_start, **overrides
    )


class TestCovertReplayValidation:
    def test_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="covert_replay"):
            ScenarioSpec(surface="k8s", covert_replay="bogus")

    def test_simulator_rejects_unknown_mode(self):
        from repro.ovs.switch import OvsSwitch

        with pytest.raises(ValueError, match="covert_replay"):
            DataplaneSimulator(
                OvsSwitch(),
                CostModel(),
                VictimWorkload(),
                covert_replay="sideways",
            )

    def test_spec_round_trips_mode(self):
        spec = deepscan()
        assert spec.covert_replay == "datapath"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestDeepscanPreset:
    def test_preset_shape(self):
        spec = SCENARIOS.get("k8s-deepscan")
        spec.validate()
        assert spec.backend == "ovs"
        assert spec.profile == "kernel-noemc"
        assert spec.covert_replay == "datapath"

    def test_noemc_profile_never_populates_the_emc(self):
        result = Session(deepscan(backend="ovs")).run()
        assert result.datapath.microflow.occupancy == 0
        assert result.final_mask_count() >= 512


class TestDatapathReplayIdentity:
    """The datapath replay mode must be bit-identical across engines
    in every configuration the campaign matrix exercises."""

    @requires_numpy
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"shards": 2},
            {"defenses": ("mask-limit",)},
            # EMC insertion on: the mixed (maybe-resident) branch
            {"profile": "kernel", "duration": 8.0, "attack_start": 4.0},
        ],
        ids=["plain", "sharded2", "mask-limit", "emc-on"],
    )
    def test_vec_series_identical_to_scalar(self, overrides, monkeypatch):
        base = deepscan(**overrides)
        vec = Session(base).run()
        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        ref = Session(base).run()
        assert vec.series.columns == ref.series.columns
        assert vec.series.rows == ref.series.rows
        assert vec.final_mask_count() == ref.final_mask_count()
        assert vec.scan_stats() == ref.scan_stats()

    @requires_numpy
    def test_seed_stable(self):
        spec = deepscan(seed=23)
        assert Session(spec).run().series.rows == \
            Session(spec).run().series.rows

    def test_datapath_mode_really_drives_the_pipeline(self):
        """Unlike the analytic model mode, datapath replay pushes the
        covert stream through the switch: the stats see the packets."""
        result = Session(deepscan(backend="ovs")).run()
        stats = result.datapath.stats
        assert stats.megaflow_hits > 0
        assert stats.packets > 512  # refreshes, not just the install


class TestFleetIdentity:
    @requires_numpy
    def test_two_node_fleet_identical_across_engines(self, monkeypatch):
        spec = FleetSpec(scenario=deepscan(), nodes=2, mobility="rolling",
                         dwell=3.0)
        vec = FleetSession(spec).run()
        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        ref = FleetSession(spec).run()
        assert vec.aggregate.rows == ref.aggregate.rows
        for ref_node, vec_node in zip(ref.node_series, vec.node_series):
            assert vec_node.rows == ref_node.rows
        assert vec.final_node_masks == ref.final_node_masks


class TestCliAnnotations:
    @pytest.mark.parametrize("have_numpy", [
        pytest.param(True, marks=requires_numpy), False,
    ], ids=["numpy", "no-numpy"])
    def test_scenario_list_names_the_engine_in_use(self, capsys,
                                                   monkeypatch, have_numpy):
        from repro.cli import _print_scenario_list

        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", have_numpy)
        _print_scenario_list()
        out = capsys.readouterr().out
        assert "k8s-deepscan" in out and "[ovs]" in out
        engine = [line for line in out.splitlines()
                  if line.startswith("engine:")]
        assert len(engine) == 1
        assert ("VecSwitch" if have_numpy else "OvsSwitch") in engine[0]

    def test_fleet_list_annotates_backends(self, capsys):
        from repro.cli import _print_fleet_list

        _print_fleet_list()
        out = capsys.readouterr().out
        assert "fleet-rolling16" in out
        assert "[ovs]" in out
