"""The burst pre-scan and its memo, one path at a time: ``VecSwitch``
stays bit-identical to ``OvsSwitch`` while the scan answers come from
the memo, a stale memo is never consumed, and the ``path_lookups``
counters say which path answered.  Generated bursts over the whole
configuration product are the differential machine's
(``tests/test_differential_machine.py``)."""

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.actions import Output
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.addresses import ip_to_int
from repro.ovs.switch import OvsSwitch
from repro.testing import fingerprint
from repro.vec import HAVE_NUMPY, VEC_TSS_PATHS

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch, VecTupleSpaceSearch

VICTIM_IP = ip_to_int("10.0.9.77")
TARGET = PolicyTarget(pod_ip=ip_to_int("10.0.9.10"), output_port=42,
                      tenant="mallory")
_POLICY, _DIMENSIONS = kubernetes_attack_policy()
RULES = KubernetesCms().compile(_POLICY, TARGET, OVS_FIELDS)
COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=TARGET.pod_ip).keys()
#: covert keys installed up front (one mask each); the rest of the
#: covert set stays fresh, so using one forces an upcall mid-burst
INSTALLED = 224
VICTIMS = [
    FlowKey(OVS_FIELDS, {
        "eth_type": 0x0800, "ip_src": 0x0A010000 + 37 * i,
        "ip_dst": VICTIM_IP, "ip_proto": 6,
        "tp_src": 2000 + i, "tp_dst": 443,
    })
    for i in range(48)
]


def _ones(bits):
    return (1 << bits) - 1


VICTIM_RULE = FlowRule(
    match=FlowMatch(OVS_FIELDS, {"eth_type": (0x0800, _ones(16)),
                                 "ip_dst": (VICTIM_IP, _ones(32))}),
    action=Output(7), priority=10, tenant="victim",
)


def _build(cls, scan_order="insertion", emc_entries=8192,
           emc_insertion_prob=1.0):
    switch = cls(space=OVS_FIELDS, name="memo-test", scan_order=scan_order,
                 emc_entries=emc_entries,
                 emc_insertion_prob=emc_insertion_prob)
    switch.add_rules(RULES + [VICTIM_RULE])
    switch.process_batch(COVERT[:INSTALLED], now=0.0, materialize=False)
    # a lap of megaflow hits (the installs' EMC slots dropped first, so
    # it reaches the TSS): the memo holds its keys at the generation
    # every later burst starts from
    switch.microflow.flush()
    switch.process_batch(COVERT[:32], now=0.0, materialize=False)
    return switch


def _onoff_burst(keys, repeat=3):
    """ON trains: every key ``repeat`` times back to back, so with an
    EMC that stores a key asks the tuple space once and its repeats are
    EMC hits; with insertion off every copy asks it."""
    return [key for key in keys for _ in range(repeat)]


class TestMemoServesBurstyTraffic:
    def test_on_trains_are_served_from_the_memo(self):
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        before = dict(vec.megaflow.tss.path_lookups)
        burst = _onoff_burst(COVERT[40:120])
        ref.process_batch(burst, now=1.0)
        vec.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "on-off burst"
        paths = vec.megaflow.tss.path_lookups
        assert paths["memo"] - before["memo"] == len(burst)
        assert sum(paths.values()) - sum(before.values()) == len(burst)

    def test_an_upcall_mid_burst_keeps_the_memo(self):
        ref, vec = _build(OvsSwitch), _build(VecSwitch)
        fresh = COVERT[INSTALLED]
        burst = (_onoff_burst(COVERT[40:60]) + [fresh]
                 + _onoff_burst(COVERT[60:80]))
        ref.process_batch(burst, now=1.0)
        before = dict(vec.megaflow.tss.path_lookups)
        vec.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "upcall mid-burst"
        paths = vec.megaflow.tss.path_lookups
        # the fresh key's miss and everything behind its install: the
        # memo absorbs the new subtable and goes on answering
        assert paths["memo"] - before["memo"] == 41
        assert paths["memo_invalidated"] == before["memo_invalidated"]
        assert paths["small_burst"] == before["small_burst"]

    def test_a_resident_evicted_mid_burst_is_answered_from_the_memo(self):
        # a 2-slot EMC: every insert evicts, so keys resident as the
        # burst opens need the TSS again later in it — pre-scanned with
        # the rest, they are memo answers, not scalar probes
        kwargs = dict(emc_entries=2, emc_insertion_prob=1.0)
        ref, vec = _build(OvsSwitch, **kwargs), _build(VecSwitch, **kwargs)
        lap = COVERT[40:72]
        burst = lap + lap
        for switch in (ref, vec):
            switch.process_batch(lap[-2:] + lap[:14], now=0.5)
        tss = vec.megaflow.tss
        before, looked_up = dict(tss.path_lookups), tss.total_lookups
        ref.process_batch(burst, now=1.0)
        vec.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "evicted residents"
        paths = tss.path_lookups
        assert paths["small_burst"] == before["small_burst"]
        assert paths["memo"] - before["memo"] == tss.total_lookups - looked_up
        assert sum(paths.values()) == tss.total_lookups

    def test_mask_churn_is_served_from_the_memo_after_the_first_burst(self):
        # every key a miss, an upcall and one more mask: only the first
        # burst — an empty tuple space, no pre-scan pays — re-probes
        # behind its own installs
        ref = OvsSwitch(space=OVS_FIELDS, name="memo-test")
        vec = VecSwitch(space=OVS_FIELDS, name="memo-test")
        for switch in (ref, vec):
            switch.add_rules(RULES)
        paths = vec.megaflow.tss.path_lookups
        for burst in range(3):
            keys = COVERT[64 * burst:64 * (burst + 1)]
            before = dict(paths)
            ref.process_batch(keys, now=0.1 * burst, materialize=False)
            vec.process_batch(keys, now=0.1 * burst, materialize=False)
            assert fingerprint(vec) == fingerprint(ref), burst
            if burst:
                assert paths["memo"] - before["memo"] == 64
                assert paths["memo_invalidated"] == before["memo_invalidated"]
        assert vec.stats.upcalls == vec.mask_count == 192
        assert paths["memo_invalidated"] == 63
        assert paths["small_burst"] == 1

    def test_a_near_empty_tuple_space_never_pre_scans(self):
        vec = VecSwitch(space=OVS_FIELDS)
        vec.add_rule(VICTIM_RULE)
        for now in (0.1, 0.2, 0.3):
            vec.process_batch(_onoff_burst(VICTIMS), now=now)
        paths = vec.megaflow.tss.path_lookups
        assert vec.mask_count == 1
        assert paths["memo"] == 0
        # one install (the first key's upcall), so one lookup behind a
        # moved generation; every other lookup is just small
        assert paths["memo_invalidated"] == 1
        assert paths["small_burst"] == vec.megaflow.tss.total_lookups - 1

    def test_a_small_chunk_behind_a_write_is_named(self):
        # an install per key (mask churn, a cold covert lap): every
        # lookup after the first re-probes behind the last one's install
        vec = VecSwitch(space=OVS_FIELDS, name="memo-test")
        vec.add_rules(RULES)
        vec.process_batch(COVERT[:64], now=0.0, materialize=False)
        paths = vec.megaflow.tss.path_lookups
        assert vec.stats.upcalls == 64
        assert paths["memo_invalidated"] == 63
        assert paths["small_burst"] == 1
        # a stable table: small bursts are just small
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        paths = vec.megaflow.tss.path_lookups
        before = dict(paths)
        for start in range(40, 100, 4):
            vec.process_batch(COVERT[start:start + 4], now=1.0,
                              materialize=False)
        assert paths["small_burst"] - before["small_burst"] == 60
        assert paths["memo_invalidated"] == before["memo_invalidated"]

    def test_every_lookup_is_counted_exactly_once(self):
        vec = _build(VecSwitch)
        for now, keys in ((1.0, COVERT[:INSTALLED]),
                          (1.1, _onoff_burst(VICTIMS)),
                          (1.2, COVERT[100:INSTALLED + 8])):
            vec.process_batch(keys, now=now, materialize=False)
        tss = vec.megaflow.tss
        assert set(tss.path_lookups) == set(VEC_TSS_PATHS)
        assert sum(tss.path_lookups.values()) == tss.total_lookups
        assert vec.vec_tss_paths == tss.path_lookups


def _scanned(monkeypatch, tss):
    """Records every packed key a pre-scan or a lookup answers by scanning:
    ``dense`` per :meth:`_dense_scan` call, ``scalar`` per probe."""
    import repro.vec.engine as engine

    seen = {"dense": [], "scalar": []}
    dense_scan, first_match = tss._dense_scan, engine._first_match

    def dense(mirror, packed_keys):
        seen["dense"].append(list(packed_keys))
        return dense_scan(mirror, packed_keys)

    def scalar(packed, *args):
        seen["scalar"].append(packed)
        return first_match(packed, *args)

    monkeypatch.setattr(tss, "_dense_scan", dense)
    monkeypatch.setattr(engine, "_first_match", scalar)
    return seen


def _packed(keys):
    return {key.packed for key in keys}


def _retire_by_insert(switch):
    switch.slow_path.handle(COVERT[INSTALLED + 1], now=1.0)


def _retire_by_remove(switch):
    # the megaflow of a key both bursts hold (entries list in install
    # order, one per covert key)
    switch.megaflow.remove_entry(switch.megaflow.entries()[50])


def _retire_by_clear(switch):
    switch.invalidate_caches()
    for key in COVERT[:INSTALLED]:
        switch.slow_path.handle(key, now=1.0)


def _retire_by_resort(switch):
    switch.megaflow.tss.resort()


class TestTheMemoOutlivesItsBurst:
    """While the tuple space is unchanged a key's scan answer is too:
    the memo carries over to the next burst, which scans only the keys
    new to the generation — and any write but an absorbed insert's
    carrying nothing to the next burst still leaves the memo exact."""

    BURST = _onoff_burst(COVERT[40:120])

    def test_a_repeated_burst_is_not_scanned_again(self, monkeypatch):
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        generation, before = tss.generation, dict(tss.path_lookups)
        seen = _scanned(monkeypatch, tss)
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "repeated burst"
        assert tss.generation == generation
        assert seen == {"dense": [], "scalar": []}
        assert tss.path_lookups["memo"] - before["memo"] == len(self.BURST)

    @pytest.mark.parametrize("between", [[], COVERT[40:44]],
                             ids=["empty", "small"])
    def test_a_small_burst_keeps_an_exact_memo(self, monkeypatch, between):
        # a keep-alive between two full bursts, too small to pre-scan:
        # the memo it finds is exact, so it stays, and the next full
        # burst is answered whole from it
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
            switch.process_batch(between, now=1.0)
        assert tss._memo is not None
        before = dict(tss.path_lookups)
        seen = _scanned(monkeypatch, tss)
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "after a small burst"
        assert seen == {"dense": [], "scalar": []}
        assert tss.path_lookups["memo"] - before["memo"] == len(self.BURST)

    @pytest.mark.parametrize("new, scan", [(1, "scalar"), (10, "dense")])
    def test_a_burst_scans_only_its_new_keys(self, monkeypatch, new, scan):
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        seen = _scanned(monkeypatch, tss)
        added = COVERT[120:120 + new]
        burst = self.BURST + _onoff_burst(added)
        for switch in (ref, vec):
            switch.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), new
        # one new key is not worth a columnar scan: it is probed scalar
        assert tss.prescan_pays(new) == (scan == "dense")
        packed = [key.packed for key in added]
        assert seen == {"dense": [packed] if scan == "dense" else [],
                        "scalar": packed if scan == "scalar" else []}
        # the memo holds every key its generation answered — the build's
        # last lap too — not only this burst's
        assert set(tss._memo) == _packed(COVERT[:32] + burst)

    def test_a_key_is_scanned_once_per_generation(self, monkeypatch):
        # bursts A, B, A over disjoint keys at one generation: the
        # second A is answered whole by what the first one scanned
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        a, b = _onoff_burst(COVERT[40:80]), _onoff_burst(COVERT[80:120])
        assert not _packed(a) & _packed(b)
        generation = tss.generation
        for burst in (a, b):
            for switch in (ref, vec):
                switch.process_batch(burst, now=1.0)
        before = dict(tss.path_lookups)
        seen = _scanned(monkeypatch, tss)
        for switch in (ref, vec):
            switch.process_batch(a, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "A, B, A"
        assert tss.generation == generation
        assert seen == {"dense": [], "scalar": []}
        assert tss.path_lookups["memo"] - before["memo"] == len(a)
        assert set(tss._memo) >= _packed(a + b)

    def test_a_memo_at_the_cap_is_dropped_and_rescanned(self, monkeypatch):
        cap, width = 8, 6  # a burst's distinct keys: enough to scan dense
        monkeypatch.setattr(VecTupleSpaceSearch, "MEMO_MAX_KEYS", cap)
        ref = _build(OvsSwitch, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        groups = [COVERT[40 + width * g:40 + width * (g + 1)]
                  for g in range(3)]
        held = set(tss._memo)  # the build's last lap: over the cap
        seen = _scanned(monkeypatch, tss)
        drops = 0
        for g in (0, 1, 0, 1, 2, 0, 2):
            keys = _packed(groups[g])
            if len(held) >= cap:
                held, drops = set(), drops + 1
            scanned = keys - held
            held |= keys
            seen["dense"].clear()
            for switch in (ref, vec):
                switch.process_batch(_onoff_burst(groups[g]), now=1.0)
            assert fingerprint(vec) == fingerprint(ref), g
            assert [set(k) for k in seen["dense"]] == \
                ([scanned] if scanned else [])
            assert set(tss._memo) == held
            assert len(tss._memo) <= cap + width
        assert seen["scalar"] == []
        # the third burst repeats the first, which a memo under no cap
        # would still hold: dropped at the cap, it was scanned again
        assert drops == 4

    def test_the_memo_holds_every_key_after_the_hit_prefix(self,
                                                           monkeypatch):
        # COVERT[:32] are EMC residents after the build: four of them
        # open the burst (the hit prefix), four more follow the misses
        ref, vec = _build(OvsSwitch), _build(VecSwitch)
        burst = COVERT[0:4] + _onoff_burst(COVERT[60:100]) + COVERT[4:8]
        assert all(key.packed in vec.microflow._index for key in COVERT[:8])
        tss = vec.megaflow.tss
        asked = []
        prescan = tss.prescan
        monkeypatch.setattr(tss, "prescan",
                            lambda keys: asked.append(keys) or prescan(keys))
        for switch in (ref, vec):
            switch.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "hit prefix"
        assert asked == [list(dict.fromkeys(key.packed for key in burst[4:]))]
        # the generation's keys: the build's last lap (the hit prefix
        # among them) and every key the burst pre-scanned
        assert set(tss._memo) == _packed(COVERT[:32] + burst[4:])
        assert tss._memo_generation == tss.generation

    @pytest.mark.parametrize("write", [_retire_by_insert, _retire_by_remove,
                                       _retire_by_clear, _retire_by_resort],
                             ids=["insert", "remove", "clear", "resort"])
    def test_a_write_between_bursts_starts_a_fresh_memo(self, monkeypatch,
                                                        write):
        order = "ranked" if write is _retire_by_resort else "insertion"
        ref = _build(OvsSwitch, scan_order=order, emc_insertion_prob=0.0)
        vec = _build(VecSwitch, scan_order=order, emc_insertion_prob=0.0)
        tss = vec.megaflow.tss
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        assert tss._memo is not None  # it outlives its burst
        generation = tss.generation
        for switch in (ref, vec):
            write(switch)
        assert tss.generation != generation
        if write is _retire_by_insert:
            assert tss._memo_written  # absorbed, not retired
        seen = _scanned(monkeypatch, tss)
        for switch in (ref, vec):
            switch.process_batch(self.BURST, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), write.__name__
        assert seen == {"dense": [list(dict.fromkeys(
            key.packed for key in self.BURST))], "scalar": []}

    def test_an_install_is_rescanned_by_the_next_burst(self, monkeypatch):
        # the fresh key misses at the pre-scan and is installed mid-burst:
        # its remembered answer is a miss that only the absorbed insert
        # corrects, so the next burst must scan it (and all) again
        ref, vec = _build(OvsSwitch), _build(VecSwitch)
        tss = vec.megaflow.tss
        burst = (_onoff_burst(COVERT[40:60]) + [COVERT[INSTALLED]] * 2
                 + _onoff_burst(COVERT[60:80]))
        for switch in (ref, vec):
            switch.process_batch(burst, now=1.0)
            switch.microflow.flush()
        assert fingerprint(vec) == fingerprint(ref), "first"
        seen = _scanned(monkeypatch, tss)
        for switch in (ref, vec):
            switch.process_batch(burst, now=1.0)
        assert fingerprint(vec) == fingerprint(ref), "second"
        assert ref.stats.upcalls == vec.stats.upcalls
        assert [set(keys) for keys in seen["dense"]] == [_packed(burst)]


class _Retired(dict):
    """A memo the tuple space has retired: any read of it fails."""

    def _read(self, *args):
        raise AssertionError("a retired memo answered a lookup")

    get = __getitem__ = __contains__ = __iter__ = __len__ = _read


class TestStaleMemoIsNeverConsumed:
    """Write the tuple space behind a live memo, then look up: after
    anything but an insert the retired memo answers nothing — the first
    answer re-probes, the rest come from a fresh pre-scan or the scalar
    fallback; an insert is absorbed and the memo still answers as the
    reference does."""

    def _prescanned(self, **kwargs):
        ref, vec = _build(OvsSwitch, **kwargs), _build(VecSwitch, **kwargs)
        tss = vec.megaflow.tss
        keys = COVERT[40:72]
        tss.prescan([key.packed for key in keys])
        assert tss._memo is not None
        return ref, vec, tss, keys

    def _check(self, ref, vec, tss, keys):
        assert tss._memo_generation != tss.generation  # retired
        tss._memo = _Retired(tss._memo)
        before = dict(tss.path_lookups)
        ref_results = ref.megaflow.tss.lookup_batch(keys)
        vec_results = tss.lookup_batch(keys)
        assert [(r.hit, r.tuples_scanned, r.hash_probes)
                for r in vec_results] == \
            [(r.hit, r.tuples_scanned, r.hash_probes) for r in ref_results]
        assert fingerprint(vec) == fingerprint(ref)
        # the first answer is a re-probe behind the write; every lookup
        # is counted once
        assert (tss.path_lookups["memo_invalidated"]
                - before["memo_invalidated"]) == 1
        assert (sum(tss.path_lookups.values()) - sum(before.values())
                == len(vec_results))
        # whatever memo is left was built at the live generation
        assert not isinstance(tss._memo, _Retired)
        assert tss._memo is None or tss._memo_generation == tss.generation

    def test_live_memo_is_consumed(self):
        ref, vec, tss, keys = self._prescanned()
        before = tss.path_lookups["memo"]
        tss.lookup_batch(keys)
        assert tss.path_lookups["memo"] - before == len(keys)

    def test_slow_path_install_is_absorbed(self):
        # the one write that does not retire the memo: the new subtable
        # is probed live behind the pre-scan's answers
        ref, vec, tss, keys = self._prescanned()
        for switch in (ref, vec):
            switch.slow_path.handle(COVERT[INSTALLED + 1], now=2.0)
        keys = keys + [COVERT[INSTALLED + 1]]
        before = dict(tss.path_lookups)
        ref_results = ref.megaflow.tss.lookup_batch(keys)
        vec_results = tss.lookup_batch(keys)
        assert [(r.entry, r.tuples_scanned, r.hash_probes)
                for r in vec_results] == \
            [(r.entry, r.tuples_scanned, r.hash_probes) for r in ref_results]
        assert vec_results[-1].tuples_scanned == INSTALLED + 1
        assert fingerprint(vec) == fingerprint(ref), "absorbed install"
        # all but the last from the memo; the installed key itself was
        # never pre-scanned, so it is probed (and found) scalar
        assert tss.path_lookups["memo"] - before["memo"] == len(keys) - 1
        assert tss.path_lookups["small_burst"] - before["small_burst"] == 1
        assert tss._memo is not None

    def test_entry_removal(self):
        ref, vec, tss, keys = self._prescanned()
        for switch in (ref, vec):
            victim = next(
                entry for entry in switch.megaflow.entries()
                if switch.megaflow.tss.lookup(keys[3]).entry is entry
            )
            switch.megaflow.remove_entry(victim)
        # the probes above were real lookups on both sides; re-arm
        tss.prescan([key.packed for key in keys])
        for switch in (ref, vec):
            switch.megaflow.remove_entry(
                switch.megaflow.tss.lookup(keys[5]).entry
            )
        self._check(ref, vec, tss, keys)

    def test_revalidator_eviction(self):
        ref, vec, tss, keys = self._prescanned()
        for switch in (ref, vec):
            assert switch.megaflow.expire_idle(now=1000.0) > 0
        self._check(ref, vec, tss, keys)

    def test_clear(self):
        ref, vec, tss, keys = self._prescanned()
        for switch in (ref, vec):
            switch.invalidate_caches()
        self._check(ref, vec, tss, keys)

    def test_ranked_resort(self):
        ref, vec, tss, keys = self._prescanned(scan_order="ranked")
        for switch in (ref, vec):
            switch.megaflow.tss.resort()
        self._check(ref, vec, tss, keys)

    def test_resort_is_not_a_mutation_in_insertion_order(self):
        ref, vec, tss, keys = self._prescanned()
        generation = tss.generation
        vec.megaflow.tss.resort()
        assert tss.generation == generation
        before = tss.path_lookups["memo"]
        tss.lookup_batch(keys)
        assert tss.path_lookups["memo"] - before == len(keys)
