"""E9 — multi-PMD sharding ablation, and the hash-aware spread stream."""

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.experiments import sharding
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE
from repro.perf.factory import DatapathConfig
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec

SMALL_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def rows():
    return sharding.run_sharding_ablation(shard_counts=SMALL_COUNTS)


def _cell(rows, attacker, shards):
    return next(r for r in rows if (r.attacker, r.shards) == (attacker, shards))


def _measure(shards, attacker):
    """The E9 cell's static replay: the k8s attack on ``shards`` shards."""
    return Session(ScenarioSpec(
        surface="k8s", attacker_strategy=attacker, shards=shards
    )).measure()


class TestSpreadKeys:
    def test_naive_stream_scatters_across_shards(self):
        per_shard = _measure(4, "naive").datapath.shard_mask_counts
        assert sum(per_shard) == 512  # each mask lands on exactly one shard
        assert max(per_shard) < 512  # ... and they spread out

    def test_spread_keys_cover_every_shard_per_mask(self):
        _policy, dimensions = kubernetes_attack_policy()
        generator = CovertStreamGenerator(dimensions, dst_ip=ip_to_int("10.0.9.10"))
        datapath = DatapathConfig(
            KERNEL_PROFILE, shards=4, seed=0
        ).dispatched(OvsSwitch)
        keys = generator.spread_keys(4, datapath.shard_of)
        # near 4x the naive stream (full-depth combos lack free entropy)
        assert len(keys) > 4 * 512 * 0.95
        # variants of one mask really land on distinct shards
        shards_hit = {datapath.shard_of(key) for key in keys[:4]}
        assert len(shards_hit) == 4

    def test_spread_variants_preserve_the_masks(self):
        """Varying only wildcarded bits: the spread stream must install
        the same 512 distinct masks on every shard it reaches."""
        datapath = _measure(2, "spread").datapath
        assert datapath.mask_count >= 0.95 * 512
        assert all(m >= 0.95 * 512 for m in datapath.shard_mask_counts)

    def test_one_shard_spread_is_the_naive_stream(self):
        _policy, dimensions = kubernetes_attack_policy()
        generator = CovertStreamGenerator(dimensions, dst_ip=ip_to_int("10.0.9.10"))
        assert generator.spread_keys(1, lambda _key: 0) == generator.keys()

    def test_spread_rejects_zero_shards(self):
        _policy, dimensions = kubernetes_attack_policy()
        generator = CovertStreamGenerator(dimensions, dst_ip=ip_to_int("10.0.9.10"))
        with pytest.raises(ValueError):
            generator.spread_keys(0, lambda _key: 0)


class TestShardingAblation:
    def test_naive_damage_dilutes_with_shards(self, rows):
        one = _cell(rows, "naive", 1)
        four = _cell(rows, "naive", 4)
        assert four.max_shard_masks < one.max_shard_masks / 2
        assert four.degradation > 2 * one.degradation
        assert four.poisoned_shards == 0

    def test_spread_poisons_every_shard(self, rows):
        four = _cell(rows, "spread", 4)
        assert four.poisoned_shards == 4
        one = _cell(rows, "spread", 1)
        # the single-datapath cliff on every core
        assert four.degradation == pytest.approx(one.degradation, rel=0.1)
        # ... bought with ~4x the covert packets
        assert four.covert_packets > 3.8 * one.covert_packets

    def test_benign_capacity_scales_out(self, rows):
        # node capacity (vs one unattacked core) grows with shards for
        # the naive attacker, and stays collapsed for the spread one
        naive = _cell(rows, "naive", 4)
        spread = _cell(rows, "spread", 4)
        assert naive.aggregate_capacity_x > 2 * spread.aggregate_capacity_x

    def test_render_and_csv(self, rows):
        text = sharding.render(rows)
        assert "E9" in text and "poisons" in text
        csv = sharding.to_csv_rows(rows)
        assert csv[0].startswith("attacker,shards")
        assert len(csv) == len(rows) + 1

    def test_unknown_attacker_rejected(self):
        with pytest.raises(ValueError, match="attacker_strategy"):
            _measure(2, "clever")
