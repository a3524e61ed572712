"""The cycle-attribution profile: aggregation, tree, determinism."""

from repro.obs import CycleProfile


class TestAggregation:
    def test_charges_accumulate_per_leaf(self):
        profile = CycleProfile()
        profile.charge("ovs", "revalidate", 100.0, node="n0", shard=0)
        profile.charge("ovs", "revalidate", 50.0, node="n0", shard=0)
        profile.charge("victim", "serve", 25.0, node="n0", shard=1)
        assert profile.total == 175.0
        assert len(profile) == 2
        layers = profile.to_dict()["tree"]["children"]
        assert {f["name"]: f["cycles"] for f in layers} == {
            "ovs": 150.0, "victim": 25.0,
        }

    def test_tree_nests_layer_phase_node_shard(self):
        profile = CycleProfile()
        profile.charge("ovs", "revalidate", 10.0, node="n0", shard=1)
        tree = profile.tree()
        assert tree["name"] == "campaign"
        assert tree["cycles"] == 10.0
        layer = tree["children"][0]
        phase = layer["children"][0]
        node = phase["children"][0]
        shard = node["children"][0]
        assert [f["name"] for f in (layer, phase, node, shard)] == [
            "ovs", "revalidate", "n0", "shard1",
        ]

    def test_whole_datapath_shard_renders_all(self):
        profile = CycleProfile()
        profile.charge("victim", "serve", 5.0, node="n0", shard=-1)
        shard = (profile.tree()["children"][0]["children"][0]
                 ["children"][0]["children"][0])
        assert shard["name"] == "all"

    def test_tree_independent_of_charge_order(self):
        charges = [("victim", "serve", 3.0, "n1", 0),
                   ("attacker", "covert_model", 7.0, "n0", 1),
                   ("ovs", "revalidate", 2.0, "n0", 0)]
        forward, backward = CycleProfile(), CycleProfile()
        for layer, phase, cycles, node, shard in charges:
            forward.charge(layer, phase, cycles, node=node, shard=shard)
        for layer, phase, cycles, node, shard in reversed(charges):
            backward.charge(layer, phase, cycles, node=node, shard=shard)
        assert forward.to_dict() == backward.to_dict()

    def test_to_dict_total_matches_leaf_sum(self):
        profile = CycleProfile()
        profile.charge("a", "x", 1.5)
        profile.charge("b", "y", 2.5, node="n0", shard=3)
        doc = profile.to_dict()
        assert doc["total_cycles"] == 4.0
        assert sum(leaf["cycles"] for leaf in doc["leaves"]) == 4.0


class TestRender:
    def test_render_shows_percentages(self):
        profile = CycleProfile()
        profile.charge("ovs", "revalidate", 75.0)
        profile.charge("victim", "serve", 25.0)
        text = profile.render()
        assert "total charged cycles: 100" in text
        assert "75.00%" in text
        assert "25.00%" in text

    def test_min_percent_prunes_small_frames(self):
        profile = CycleProfile()
        profile.charge("ovs", "revalidate", 99.5)
        profile.charge("victim", "serve", 0.5)
        text = profile.render(min_percent=1.0)
        assert "victim" not in text

    def test_empty_profile_renders_zero(self):
        assert CycleProfile().render() == "total charged cycles: 0"

    def test_empty_profile_has_no_leaves(self):
        profile = CycleProfile()
        assert profile.total == 0.0
        assert len(profile) == 0
        assert profile.to_dict()["leaves"] == []
