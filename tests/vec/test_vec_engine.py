"""The columnar vectorized engine (what ``ovs`` runs on NumPy): codec
invariants, TSS burst equivalence against the reference scan, scenario
series identity, and graceful degradation when NumPy is absent."""

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch
from repro.ovs.tss import TupleSpaceSearch
from repro.scenario import SCENARIOS, ScenarioSpec, Session
from repro.vec import HAVE_NUMPY, NumpyUnavailableError, require_numpy

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                    reason="numpy not installed")

if HAVE_NUMPY:
    from repro.vec.columnar import LaneCodec
    from repro.vec.engine import VecSwitch, VecTupleSpaceSearch


def _attack_state(cls, **kwargs):
    """A switch of ``cls`` with the full 512-mask attack installed."""
    policy, dimensions = kubernetes_attack_policy()
    target = PolicyTarget(
        pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
    )
    switch = cls(space=OVS_FIELDS, name="vec-test", **kwargs)
    switch.add_rules(KubernetesCms().compile(policy, target, OVS_FIELDS))
    covert = CovertStreamGenerator(dimensions, dst_ip=target.pod_ip).keys()
    for key in covert:
        switch.slow_path.handle(key, now=0.0)
    return switch, covert


def _tss_pairs(**kwargs):
    ref, covert = _attack_state(OvsSwitch, **kwargs)
    vec, _ = _attack_state(VecSwitch, **kwargs)
    assert isinstance(vec.megaflow.tss, VecTupleSpaceSearch)
    return ref.megaflow.tss, vec.megaflow.tss, covert


def _fields(results):
    return [(r.hit, r.tuples_scanned, r.hash_probes) for r in results]


def _counters(tss):
    return (tss.total_lookups, tss.total_tuples_scanned,
            tss.total_hash_probes, tss.resorts)


def _answered(tss):
    """The lookups each path answered, paths that answered none left
    out."""
    return {path: n for path, n in tss.path_lookups.items() if n}


class TestNumpyGating:
    """repro must degrade gracefully, not crash, without NumPy."""

    def test_require_numpy_when_available(self):
        if HAVE_NUMPY:
            assert require_numpy().uint64 is not None
        else:
            with pytest.raises(NumpyUnavailableError):
                require_numpy()

    def test_missing_numpy_raises_actionable_error(self, monkeypatch):
        import repro.vec

        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        with pytest.raises(NumpyUnavailableError,
                           match="the columnar engine requires NumPy"):
            require_numpy("the columnar engine")

    def test_a_scalar_platform_shows_as_an_all_zero_census(
            self, monkeypatch):
        """Without NumPy ``ovs`` runs the scalar engine, silently: what
        shows it is the ``vec.tss.*`` census, all zero."""
        import repro.vec
        from repro.obs import vec_tss_paths

        spec = SCENARIOS.get("k8s-deepscan").evolve(duration=6.0,
                                                    attack_start=2.0)
        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        result = Session(spec).run()
        assert type(result.datapath) is OvsSwitch
        assert result.datapath.stats.megaflow_hits > 0
        assert not any(vec_tss_paths(result.datapath).values())

    def test_backend_listing_does_not_need_numpy(self, monkeypatch):
        import repro.vec
        from repro.scenario.registry import BACKENDS

        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        assert BACKENDS.names() == ["ovs", "cacheless"]
        assert BACKENDS.get("ovs")() is OvsSwitch


@requires_numpy
class TestLaneCodec:
    def _sample_packed(self):
        _, dimensions = kubernetes_attack_policy()
        keys = CovertStreamGenerator(
            dimensions, dst_ip=ip_to_int("10.0.9.10")
        ).keys()[:64]
        return [key.packed for key in keys]

    def test_ovs_space_spans_three_lanes(self):
        codec = LaneCodec(OVS_FIELDS)
        assert codec.lanes == 3
        assert codec.nbytes == 24

    def test_rows_round_trip_packed_integers(self):
        codec = LaneCodec(OVS_FIELDS)
        packed = self._sample_packed()
        rows = codec.encode_ints(packed)
        rebuilt = [
            sum(int(row[i]) << (64 * (codec.lanes - 1 - i))
                for i in range(codec.lanes))
            for row in rows
        ]
        assert rebuilt == packed

    def test_masking_distributes_over_lanes(self):
        codec = LaneCodec(OVS_FIELDS)
        packed = self._sample_packed()
        mask = FlowMatch(
            OVS_FIELDS,
            {"ip_src": (0, 0xFFFF0000), "tp_dst": (0, 0xFFFF)},
        )
        mask_int = OVS_FIELDS.pack(mask.masks)
        mask_row = codec.encode_ints([mask_int])[0]
        masked = codec.encode_ints([p & mask_int for p in packed])
        import numpy as np

        assert np.array_equal(codec.encode_ints(packed) & mask_row, masked)


@requires_numpy
class TestVecTssLookupBatch:
    """The burst lookup must replay the reference scan bit-for-bit."""

    def test_all_hits_match_reference(self):
        ref, vec, covert = _tss_pairs()
        burst = covert[:128]
        assert _fields(vec.lookup_batch(burst)) == \
            _fields(ref.lookup_batch(burst))
        assert _counters(vec) == _counters(ref)
        assert _answered(vec) == {"memo": 128}

    def test_duplicate_heavy_burst_matches_reference(self):
        # 4 distinct keys cycled through a 128-key burst: each is
        # pre-scanned once and every copy answered from the memo
        ref, vec, covert = _tss_pairs()
        burst = (covert[:4] * 32)
        assert _fields(vec.lookup_batch(burst)) == \
            _fields(ref.lookup_batch(burst))
        assert _counters(vec) == _counters(ref)
        assert _answered(vec) == {"memo": 128}

    def test_prefix_stops_at_first_miss(self):
        ref, vec, covert = _tss_pairs()
        alien = FlowKey(OVS_FIELDS, {"ip_src": 1, "ip_dst": 2})
        burst = covert[:20] + [alien] + covert[20:40]
        ref_results = ref.lookup_batch(burst)
        vec_results = vec.lookup_batch(burst)
        assert len(vec_results) == 21
        assert _fields(vec_results) == _fields(ref_results)
        assert not vec_results[-1].hit
        assert _counters(vec) == _counters(ref)
        assert _answered(vec) == {"memo": 21}

    def test_ranked_bursts_agree_across_a_resort(self):
        ref, vec, covert = _tss_pairs(scan_order="ranked")
        assert _fields(vec.lookup_batch(covert[40:64])) == \
            _fields(ref.lookup_batch(covert[40:64]))
        for tss in (ref, vec):
            tss.resort()
        # both scans resorted into the same pvector order, and the
        # dense mirror follows it
        assert [s.masks for s in vec.subtables()] == \
            [s.masks for s in ref.subtables()]
        vec_results = vec.lookup_batch(covert[:64])
        assert _fields(vec_results) == _fields(ref.lookup_batch(covert[:64]))
        assert vec_results[40].tuples_scanned == 1
        assert _counters(vec) == _counters(ref)
        # the re-sort retired the memo: the first key behind it is
        # re-probed, the rest of the burst pre-scanned again
        assert _answered(vec) == {"memo": 87, "memo_invalidated": 1}

    def test_dense_fallback_on_entry_heavy_subtables(self):
        # one subtable holding 40 entries blows the DENSE_MAX_ENTRIES
        # budget: the mirror is refused and the scalar scan answers
        ref = TupleSpaceSearch(OVS_FIELDS)
        vec = VecTupleSpaceSearch(OVS_FIELDS)
        keys = [
            FlowKey(OVS_FIELDS, {"ip_src": 0x0A000000 + i, "ip_dst": 7})
            for i in range(40)
        ]
        mask = FlowMatch(
            OVS_FIELDS,
            {"ip_src": (0, 0xFFFFFFFF), "ip_dst": (0, 0xFFFFFFFF)},
        ).packed[0]
        for i, key in enumerate(keys):
            entry = f"entry-{i}"
            ref.insert(mask, key.packed & mask, entry)
            vec.insert(mask, key.packed & mask, entry)
        vec_results = vec.lookup_batch(keys)
        assert vec._dense_cache is None
        ref_results = ref.lookup_batch(keys)
        assert [r.entry for r in vec_results] == [
            r.entry for r in ref_results
        ]
        assert _fields(vec_results) == _fields(ref_results)
        assert _counters(vec) == _counters(ref)
        assert _answered(vec) == {"small_burst": 40}

    def test_small_bursts_use_the_reference_path(self):
        """...unless a pre-scan's memo covers them."""
        ref, vec, covert = _tss_pairs()
        small = covert[:VecTupleSpaceSearch.VEC_MIN_BATCH - 1]
        # no pre-scan behind it: the scalar scan answers, and says so
        assert _fields(vec.lookup_batch(small)) == \
            _fields(ref.lookup_batch(small))
        assert _counters(vec) == _counters(ref)
        assert vec.path_lookups["small_burst"] == len(small)
        assert vec.path_lookups["memo"] == 0
        # a pre-scan covering the chunk: the same answers and counters,
        # consumed from the memo with no scan at all
        vec.prescan([key.packed for key in covert[:64]])
        assert _fields(vec.lookup_batch(small)) == \
            _fields(ref.lookup_batch(small))
        assert _counters(vec) == _counters(ref)
        assert vec.path_lookups["memo"] == len(small)
        assert vec.path_lookups["small_burst"] == len(small)

    def test_a_small_lookup_leaves_the_next_burst_its_pre_scan(self):
        ref, vec, covert = _tss_pairs()
        for tss in (ref, vec):
            tss.lookup(covert[0])
        assert _fields(vec.lookup_batch(covert[:128])) == \
            _fields(ref.lookup_batch(covert[:128]))
        assert _counters(vec) == _counters(ref)
        assert _answered(vec) == {"small_burst": 1, "memo": 128}


@requires_numpy
class TestVecScenarios:
    """Full scenario runs: the columnar engine must reproduce the scalar
    engine's series (the one a platform without NumPy runs)."""

    def test_series_identical_to_ovs(self, monkeypatch):
        import repro.vec

        base = SCENARIOS.get("k8s").evolve(duration=25.0, attack_start=8.0)
        vec = Session(base).run()
        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        plain = Session(base).run()
        assert vec.series.columns == plain.series.columns
        assert vec.series.rows == plain.series.rows
        assert vec.final_mask_count() == plain.final_mask_count()
        assert vec.scan_stats() == plain.scan_stats()

    def test_sharded_wrap_series_identical(self, monkeypatch):
        import repro.vec

        base = SCENARIOS.get("k8s").evolve(
            duration=20.0, attack_start=6.0, shards=2
        )
        vec = Session(base).run()
        monkeypatch.setattr(repro.vec, "HAVE_NUMPY", False)
        ref = Session(base).run()
        assert vec.series.rows == ref.series.rows
        assert vec.final_mask_count() == ref.final_mask_count()

    def test_seed_stability(self):
        spec = SCENARIOS.get("k8s").evolve(
            duration=20.0, attack_start=6.0, seed=11
        )
        first = Session(spec).run()
        second = Session(spec).run()
        assert first.series.rows == second.series.rows
        assert first.final_mask_count() == second.final_mask_count()

    def test_presets_build_vec_datapaths(self):
        datapath = Session(SCENARIOS.get("calico")).build_datapath()
        assert isinstance(datapath, VecSwitch)
        sharded = Session(
            SCENARIOS.get("calico-netdev-pmd4")
        ).build_datapath()
        assert all(isinstance(s, VecSwitch) for s in sharded.shards)
