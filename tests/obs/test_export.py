"""The exporters and the shared datapath-snapshot encoder."""

import json

from repro.obs import Telemetry
from repro.obs.export import (
    EMC_COUNTERS,
    datapath_state,
    emc_counters,
    mask_census,
    observe_shards,
    observe_switch,
    prometheus_text,
    record_emc,
    record_vec_tss,
    scan_stats,
    telemetry_json,
    vec_tss_paths,
    write_metrics,
)
from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session
from repro.vec import VEC_TSS_PATHS


def _datapath(shards=1):
    spec = SCENARIOS.get("k8s-deepscan").evolve(shards=shards)
    return Session(spec).build_datapath()


class TestSnapshotEncoder:
    def test_observe_switch_fields(self):
        datapath = _datapath()
        observed = observe_switch(datapath)
        assert set(observed) == {"stats", "mask_count", "megaflow_count",
                                 "tss_lookups", "expected_scan_depth",
                                 "rule_count", "vec_tss", "emc"}

    def test_observe_shards_counts_views(self):
        assert len(observe_shards(_datapath(shards=1))) == 1
        assert len(observe_shards(_datapath(shards=2))) == 2

    def test_datapath_state_aggregates(self):
        datapath = _datapath(shards=2)
        state = datapath_state(datapath)
        assert state["mask_count"] == max(state["shard_mask_counts"])
        assert state["total_mask_count"] == sum(state["shard_mask_counts"])
        assert isinstance(state["stats"], dict)

    def test_scan_stats_subset(self):
        stats = scan_stats(_datapath())
        assert set(stats) == {"packets", "tuples_scanned", "hash_probes",
                              "avg_tuples_per_megaflow_lookup"}

    def test_scan_stats_empty_without_stats_surface(self):
        class Bare:
            pass

        assert scan_stats(Bare()) == {}

    def test_mask_census_unsharded_equal_pair(self):
        worst, total = mask_census(_datapath(shards=1))
        assert worst == total

    def test_scan_stats_matches_session_result(self):
        spec = SCENARIOS.get("k8s-deepscan").evolve(
            duration=15.0, attack_start=5.0
        )
        result = Session(spec).run()
        assert result.scan_stats() == scan_stats(result.datapath)


class TestVecTssPaths:
    """Which code path answered the TSS lookups, through the encoder."""

    def test_every_lookup_lands_on_one_path_summed_over_shards(self):
        spec = SCENARIOS.get("k8s-deepscan").evolve(shards=2)
        session = Session(spec)
        datapath = session.build_datapath()
        datapath.add_rules(session.surface.compile_rules(
            session.policy, session.target, session.space
        ))
        keys = session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )
        for now in (0.0, 0.1, 0.2):
            datapath.process_batch(keys, now=now, materialize=False)
        state = datapath_state(datapath)
        assert set(state["vec_tss"]) == set(VEC_TSS_PATHS)
        assert sum(state["vec_tss"].values()) == state["tss_lookups"]
        # laps two and three are scanned once per burst and consumed
        # from the memo; the cold lap went scalar key by key, every
        # lookup but each shard's first behind the previous one's install
        assert state["vec_tss"]["memo"] >= len(keys)
        assert state["vec_tss"]["memo_invalidated"] >= len(keys) - 2
        assert vec_tss_paths(datapath) == state["vec_tss"]

    def test_scalar_engines_read_all_zero(self, monkeypatch):
        monkeypatch.setattr("repro.vec.HAVE_NUMPY", False)
        session = Session(SCENARIOS.get("k8s-deepscan"))
        datapath = session.build_datapath()
        datapath.add_rules(session.surface.compile_rules(
            session.policy, session.target, session.space
        ))
        keys = session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )
        datapath.process_batch(keys, now=0.0, materialize=False)
        state = datapath_state(datapath)
        assert state["tss_lookups"] >= len(keys)
        assert state["vec_tss"] == dict.fromkeys(VEC_TSS_PATHS, 0)

    def test_metric_family(self):
        tele = Telemetry()
        paths = dict(zip(VEC_TSS_PATHS, range(1, 7)))
        record_vec_tss(tele, paths, node="n0")
        text = prometheus_text(tele)
        assert 'repro_vec_tss_scan_lookups{node="n0"} 1' in text
        assert 'repro_vec_tss_memo_lookups{node="n0"} 2' in text
        assert ('repro_vec_tss_fallback_lookups'
                '{node="n0",reason="small_burst"} 4') in text
        assert ('repro_vec_tss_fallback_lookups'
                '{node="n0",reason="memo_invalidated"} 5') in text
        assert text.count("repro_vec_tss_fallback_lookups{") == 4

    def test_a_traced_campaign_exports_the_family(self):
        spec = SCENARIOS.get("k8s-deepscan").evolve(
            duration=15.0, attack_start=5.0
        )
        tele = Telemetry()
        result = Session(spec, telemetry=tele).run()
        exported = {
            (name, dict(labels).get("reason")): instrument.value
            for name, labels, instrument in tele.series()
            if name.startswith("vec.tss.")
        }
        paths = vec_tss_paths(result.datapath)
        assert exported[("vec.tss.memo_lookups", None)] == paths["memo"] > 0
        assert exported[("vec.tss.fallback_lookups", "small_burst")] == \
            paths["small_burst"]


class TestEmcCounters:
    """The exact-match cache's counters, through the encoder."""

    def _run(self, shards):
        spec = SCENARIOS.get("k8s-deepscan").evolve(
            shards=shards, profile="netdev"
        )
        session = Session(spec)
        datapath = session.build_datapath()
        datapath.add_rules(session.surface.compile_rules(
            session.policy, session.target, session.space
        ))
        keys = session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )[:64]
        for now in (0.0, 0.1):
            datapath.process_batch(keys, now=now, materialize=False)
        return datapath, len(keys)

    def test_summed_over_shards_and_equal_to_the_caches(self):
        from repro.ovs.pmd import shard_views

        datapath, n_keys = self._run(shards=2)
        emc = datapath_state(datapath)["emc"]
        assert tuple(emc) == EMC_COUNTERS
        caches = [shard.microflow for shard in shard_views(datapath)]
        assert len(caches) == 2
        for name in EMC_COUNTERS:
            assert emc[name] == sum(getattr(c, name) for c in caches), name
        # lap one installs, lap two hits every slot it left
        assert emc["lookups"] == 2 * n_keys
        assert emc["hits"] == emc["insertions"] == emc["occupancy"] == n_keys
        assert emc_counters(datapath) == emc

    def test_the_engine_does_not_show(self, monkeypatch):
        vec, _ = self._run(shards=1)
        monkeypatch.setattr("repro.vec.HAVE_NUMPY", False)
        ref, _ = self._run(shards=1)
        assert emc_counters(vec) == emc_counters(ref)

    def test_a_cacheless_datapath_reads_all_zero(self):
        spec = SCENARIOS.get("k8s-deepscan").evolve(backend="cacheless")
        datapath = Session(spec).build_datapath()
        assert observe_switch(datapath)["emc"] is None
        assert datapath_state(datapath)["emc"] == dict.fromkeys(
            EMC_COUNTERS, 0
        )

    def test_metric_family(self):
        tele = Telemetry()
        record_emc(tele, dict(zip(EMC_COUNTERS, range(1, 7))), node="n0")
        text = prometheus_text(tele)
        for value, name in enumerate(EMC_COUNTERS, start=1):
            assert f'repro_ovs_emc_{name}{{node="n0"}} {value}' in text

    def test_a_traced_campaign_exports_the_family(self):
        spec = SCENARIOS.get("k8s-deepscan").evolve(
            duration=15.0, attack_start=5.0
        )
        tele = Telemetry()
        result = Session(spec, telemetry=tele).run()
        exported = {
            name.removeprefix("ovs.emc."): instrument.value
            for name, _labels, instrument in tele.series()
            if name.startswith("ovs.emc.")
        }
        assert exported == emc_counters(result.datapath)


class TestPrometheusText:
    def test_families_and_series(self):
        tele = Telemetry()
        tele.counter("sim.attacker.packets", node="n0").inc(42)
        tele.gauge("sim.emc.hit_rate").set(0.25)
        text = prometheus_text(tele)
        assert "# TYPE repro_sim_attacker_packets counter" in text
        assert 'repro_sim_attacker_packets{node="n0"} 42' in text
        assert "repro_sim_emc_hit_rate 0.25" in text

    def test_histogram_exposition(self):
        tele = Telemetry()
        hist = tele.histogram("sim.victim.avg_cycles", buckets=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        text = prometheus_text(tele)
        assert 'repro_sim_victim_avg_cycles_bucket{le="10"} 1' in text
        assert 'repro_sim_victim_avg_cycles_bucket{le="100"} 2' in text
        assert 'repro_sim_victim_avg_cycles_bucket{le="+Inf"} 2' in text
        assert "repro_sim_victim_avg_cycles_sum 55" in text
        assert "repro_sim_victim_avg_cycles_count 2" in text

    def test_integer_values_render_without_decimal(self):
        tele = Telemetry()
        tele.counter("a.b").inc(3.0)
        assert "repro_a_b 3\n" in prometheus_text(tele)

    def test_empty_registry_is_empty_text(self):
        assert prometheus_text(Telemetry()) == ""


class TestWriters:
    def test_prom_suffix_writes_text(self, tmp_path):
        tele = Telemetry()
        tele.counter("a.b").inc()
        path = write_metrics(tele, tmp_path / "out.prom")
        assert path.read_text().startswith("# TYPE repro_a_b counter")

    def test_other_suffix_writes_json_snapshot(self, tmp_path):
        tele = Telemetry()
        tele.counter("a.b").inc()
        path = write_metrics(tele, tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs/v1"
        assert doc == json.loads(telemetry_json(tele))
