"""Tests for the generic registry, the scenario registries and the
declarative ScenarioSpec (dict round-trip, validation errors)."""

import pytest

from repro.scenario import (
    BACKENDS,
    DEFENSES,
    PROFILES,
    SCENARIOS,
    SURFACES,
    DefenseUse,
    ScenarioSpec,
)
from repro.util.registry import Registry, UnknownNameError


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert "a" in reg and "b" not in reg

    def test_unknown_name_lists_choices(self):
        reg = Registry("thing")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(UnknownNameError) as excinfo:
            reg.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            Registry("thing").get("nope")

    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ValueError):
            reg.register("a", 2)

    def test_decorator_form_and_order(self):
        reg = Registry("fn")

        @reg.register("one")
        def one():
            return 1

        @reg.register("two")
        def two():
            return 2

        assert reg.names() == ["one", "two"]
        assert reg.get("one") is one


class TestBuiltinRegistries:
    def test_surfaces_cover_the_paper(self):
        assert {"prefix8", "k8s", "openstack", "calico", "fig2"} <= set(SURFACES.names())
        assert SURFACES.get("calico").paper_masks == 8192
        assert not SURFACES.get("fig2").is_campaign

    def test_profiles_and_backends(self):
        assert PROFILES.names() == [
            "kernel", "kernel-noemc", "netdev", "netdev-ranked",
            "netdev-pmd4", "netdev-pmd4-alb",
        ]
        # the engine and nothing else: shard count, key mode and
        # runtime are not backend names
        assert BACKENDS.names() == ["ovs", "cacheless"]

    def test_defenses(self):
        assert {"none", "mask-limit", "rate-limit", "prefix-rounding", "detector"} <= set(
            DEFENSES.names()
        )

    def test_named_scenarios_validate(self):
        for _name, spec in SCENARIOS.items():
            spec.validate()


class TestScenarioSpec:
    def test_round_trip_defaults(self):
        spec = ScenarioSpec(surface="calico")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_everything(self):
        spec = ScenarioSpec(
            surface="k8s",
            profile="netdev",
            backend="cacheless",
            defenses=(
                DefenseUse("mask-limit", {"max_masks": 32}),
                DefenseUse("detector"),
            ),
            duration=42.0,
            attack_start=7.0,
            covert_rate_bps=1e6,
            workload_skew=0.5,
            seed=13,
            name="custom",
            description="round-trip probe",
        )
        data = spec.to_dict()
        assert data["defenses"] == [
            {"name": "mask-limit", "params": {"max_masks": 32}},
            "detector",
        ]
        assert ScenarioSpec.from_dict(data) == spec

    def test_defenses_accept_bare_strings(self):
        spec = ScenarioSpec(surface="calico", defenses=("mask-limit",))
        assert spec.defenses == (DefenseUse("mask-limit"),)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict({"surface": "calico", "swithc": "oops"})
        assert "swithc" in str(excinfo.value)

    def test_validate_unknown_surface_lists_choices(self):
        with pytest.raises(UnknownNameError) as excinfo:
            ScenarioSpec(surface="azure").validate()
        assert "calico" in str(excinfo.value)

    def test_validate_unknown_profile_and_defense(self):
        with pytest.raises(UnknownNameError):
            ScenarioSpec(surface="calico", profile="dpdk-turbo").validate()
        with pytest.raises(UnknownNameError):
            ScenarioSpec(surface="calico", defenses=("firewall",)).validate()

    def test_name_defaults_to_surface(self):
        assert ScenarioSpec(surface="calico").name == "calico"

    def test_evolve(self):
        spec = ScenarioSpec(surface="calico").evolve(duration=5.0)
        assert spec.duration == 5.0 and spec.surface == "calico"

    def test_shards_round_trip_and_default(self):
        assert ScenarioSpec(surface="calico").shards == 0  # profile default
        spec = ScenarioSpec(surface="calico", shards=4)
        data = spec.to_dict()
        assert data["shards"] == 4
        assert ScenarioSpec.from_dict(data) == spec

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(surface="calico", shards=-1)

    def test_pmd_profile_carries_a_shard_default(self):
        assert PROFILES.get("netdev-pmd4").shards == 4
        assert PROFILES.get("kernel").shards == 1
