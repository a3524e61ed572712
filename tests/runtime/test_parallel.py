"""The multi-process runtime vs its serial reference.

The hard contract: :class:`ParallelDatapath` is *observationally
identical* to :class:`~repro.ovs.pmd.ShardedDatapath` built with the
same arguments — per-burst aggregate counters, merged stats, per-shard
mask counts, everything the aggregate-only wire carries.  (Dispatch is
one inherited implementation — ``tests/ovs/test_one_dispatcher.py`` —
so there is no second copy of the RETA arithmetic to compare.)  Plus
the loud refusals (materialized results, per-packet entry APIs,
defenses) and the worker-crash diagnostics.
"""

import dataclasses
import multiprocessing
import os
import signal

import pytest

from repro.flow.fields import FieldSpace
from repro.obs.export import emc_counters
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import PROFILES, DatapathConfig
from repro.runtime.parallel import (
    BATCH_WIRE_FIELDS,
    WorkerCrashError,
    _worker_main,
)
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec


@pytest.fixture(scope="module")
def k8s():
    """The 512-mask Kubernetes surface: space, compiled rules, covert
    keys — enough to explode real mask state on every shard."""
    session = Session(ScenarioSpec(surface="k8s", profile="kernel"))
    rules = session.surface.compile_rules(
        session.policy, session.target, session.space
    )
    keys = session.surface.covert_keys(
        session.dimensions, session.target, session.space
    )
    return session.space, rules, keys


def _profile(profile):
    """A profile by name, or as given."""
    return PROFILES.get(profile) if isinstance(profile, str) else profile


def _serial(space, rules, shards, profile="kernel"):
    dp = DatapathConfig(
        _profile(profile), space=space, shards=shards, seed=7, name="ref",
        rebalance_interval=0.0
    ).dispatched(OvsSwitch)
    dp.add_rules(rules)
    return dp


def _parallel(space, rules, shards, profile="kernel"):
    dp = DatapathConfig(
        _profile(profile), space=space, name="ref", shards=shards,
        seed=7, runtime="processes",
    ).build()
    dp.add_rules(rules)
    return dp


def _counters(batch):
    return tuple(getattr(batch, f) for f in BATCH_WIRE_FIELDS)


def _final_state(dp):
    return {
        "stats": dataclasses.asdict(dp.stats),
        "shard_masks": dp.shard_mask_counts,
        "mask_count": dp.mask_count,
        "total_mask_count": dp.total_mask_count,
        "megaflow_count": dp.megaflow_count,
        "tss_lookups": dp.tss_lookups,
        "rule_count": dp.rule_count,
    }


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_serial_reference(self, k8s, shards):
        """Burst for burst and counter for counter: install laps,
        revisit laps (EMC + megaflow hits), an idle-expiry gap, and an
        empty keep-alive burst all aggregate identically."""
        space, rules, keys = k8s
        serial = _serial(space, rules, shards)
        with _parallel(space, rules, shards) as par:
            schedule = [
                (0.1, keys),            # install lap: all upcalls
                (0.2, keys[:200]),      # revisit: cache hits
                (0.3, keys[::3]),       # strided revisit
                (0.4, []),              # idle tick (clock still advances)
                (25.0, keys[:64]),      # after the 10 s idle timeout
            ]
            for now, burst in schedule:
                ref = serial.process_batch(burst, now=now, materialize=False)
                got = par.process_batch(burst, now=now)
                assert _counters(got) == _counters(ref), f"burst at t={now}"
            assert _final_state(par) == _final_state(serial)
            assert par.expected_scan_depth() == pytest.approx(
                serial.expected_scan_depth()
            )
            # the workers' keys are packed-only, so every EMC insert
            # into a new slot hashes a lazily unpacked ``values``: the
            # same inserts, hits and evictions show it places the key
            # where the serial twin's tuple-built key lands
            emc = emc_counters(serial)
            assert emc["insertions"] > 0
            assert emc_counters(par, par.observe()) == emc

    def test_noemc_profile_matches(self, k8s):
        """The deep-scan serve profile (EMC insertion off) — what the
        ``k8s-serve`` preset and the pipeline benchmark's serve
        workloads run — is equivalent too."""
        space, rules, keys = k8s
        serial = _serial(space, rules, 2, profile="kernel-noemc")
        with _parallel(space, rules, 2, profile="kernel-noemc") as par:
            for now in (0.1, 0.2, 0.3):
                ref = serial.process_batch(keys, now=now, materialize=False)
                got = par.process_batch(keys, now=now)
                assert _counters(got) == _counters(ref)
            assert _final_state(par) == _final_state(serial)


    def test_a_flow_limited_burst_has_the_inline_wire_tuple(self, k8s):
        """A burst that fills the shards' flow limit rejects upcalls:
        the worker's reply carries ``upcalls_rejected`` like every other
        counter of the burst, so the parallel wire tuple is the inline
        one and the merged stats agree."""
        space, rules, keys = k8s
        limited = dataclasses.replace(PROFILES.get("kernel"), flow_limit=8)
        serial = _serial(space, rules, 2, profile=limited)
        with _parallel(space, rules, 2, profile=limited) as par:
            for now, burst in ((0.1, keys[:64]), (0.2, keys[64:96])):
                ref = serial.process_batch(burst, now=now, materialize=False)
                got = par.process_batch(burst, now=now)
                assert ref.upcalls_rejected > 0
                assert _counters(got) == _counters(ref), f"burst at t={now}"
            assert _final_state(par) == _final_state(serial)


def test_worker_never_unpacks_a_key(k8s, monkeypatch):
    """A shard worker builds its keys from the packed ints the mailbox
    carries and decodes none of them: on the deep-scan serve profile
    (EMC insertion off) nothing in a burst reads a key's ``values``.
    The worker loop runs in-process over a pipe with its messages
    queued, and answers what the inline switch answers."""
    space, rules, keys = k8s

    def shard():
        switch = DatapathConfig(
            PROFILES.get("kernel-noemc"), space=space, seed=7, name="ref"
        ).build()
        switch.add_rules(rules)
        return switch

    worker, reference = shard(), shard()
    parent_end, worker_end = multiprocessing.Pipe()
    parent_end.send(("batch", [key.packed for key in keys], 0.1))
    parent_end.send(("stop",))
    calls = []
    unpack = FieldSpace.unpack
    monkeypatch.setattr(
        FieldSpace, "unpack",
        lambda self, packed: calls.append(packed) or unpack(self, packed),
    )
    _worker_main(worker_end, worker)
    kind, reply = parent_end.recv()
    assert (kind, parent_end.recv()) == ("ok", ("ok", None))
    parent_end.close()
    worker_end.close()
    assert calls == []
    monkeypatch.undo()
    ref = reference.process_batch(keys, now=0.1, materialize=False)
    assert reply == _counters(ref)
    assert ref.upcalls > 0


class TestLifecycle:
    def test_lazy_start(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            assert not par.started
            par.process_batch(keys[:8], now=0.1)
            assert par.started

    def test_pre_start_observables_run_locally(self, k8s):
        space, rules, _keys = k8s
        with _parallel(space, rules, 2) as par:
            assert not par.started
            assert par.rule_count == len(rules)
            assert par.mask_count == 0
            assert par.stats.packets == 0
            assert not par.started  # observing never forks

    def test_post_start_rule_broadcast(self, k8s):
        """Rules added after the fork broadcast over the mailboxes and
        land on every worker (rule_count is read back from a worker)."""
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            par.process_batch(keys[:8], now=0.1)
            before = par.rule_count
            par.add_rules(rules[:3])  # duplicates still append
            assert par.rule_count == before + 3

    def test_invalidate_broadcast(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            par.process_batch(keys, now=0.1)
            assert par.megaflow_count > 0
            par.invalidate_caches()
            assert par.megaflow_count == 0
            assert par.total_mask_count == 0

    def test_close_is_idempotent(self, k8s):
        space, rules, keys = k8s
        par = _parallel(space, rules, 2)
        par.process_batch(keys[:8], now=0.1)
        par.close()
        par.close()
        assert all(not p.is_alive() for p in par._procs)

    def test_use_after_close_is_loud(self, k8s):
        space, rules, keys = k8s
        par = _parallel(space, rules, 2)
        par.process_batch(keys[:8], now=0.1)
        par.close()
        with pytest.raises(WorkerCrashError):
            par.process_batch(keys[:8], now=0.2)


class TestRefusals:
    def test_materialize_rejected(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            with pytest.raises(ValueError, match="aggregate-only"):
                par.process_batch(keys[:8], now=0.1, materialize=True)

    def test_process_rejected(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            with pytest.raises(ValueError, match="aggregate-only"):
                par.process(keys[0], now=0.1)

    def test_handle_miss_rejected(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            with pytest.raises(ValueError, match="worker memory"):
                par.handle_miss(keys[0], now=0.1)

    def test_install_guard_rejected(self, k8s):
        space, rules, _keys = k8s
        with _parallel(space, rules, 2) as par:
            with pytest.raises(ValueError, match="install-guard"):
                par.add_install_guard(object())


class TestCrashDetection:
    def test_killed_worker_raises_loud(self, k8s):
        """A SIGKILLed worker turns into a WorkerCrashError naming the
        shard — never a hang on the dead pipe."""
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            par.process_batch(keys, now=0.1)
            victim = par._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            with pytest.raises(WorkerCrashError, match="shard worker 0"):
                par.process_batch(keys, now=0.2)

    def test_crash_error_names_shard_and_exitcode(self, k8s):
        space, rules, keys = k8s
        with _parallel(space, rules, 2) as par:
            par.process_batch(keys, now=0.1)
            victim = par._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            # steer the whole burst at the dead shard so the error must
            # come from it specifically
            shard1_keys = [k for k in keys if par.shard_of(k) == 1]
            assert shard1_keys
            with pytest.raises(WorkerCrashError) as excinfo:
                par.process_batch(shard1_keys, now=0.2)
            message = str(excinfo.value)
            assert "shard worker 1" in message
            assert "exit code" in message
