"""The serve loop: determinism, snapshots, graceful shutdown.

Pins the service-level contracts: the synthetic feed is byte-
deterministic, serial and parallel serve runs produce identical
deterministic views, SIGINT/SIGTERM drain the in-flight burst and
flush a final snapshot (with the previous handlers restored), and a
killed worker surfaces as a loud crash, not a hang.
"""

import json
import os
import signal

import pytest

from repro.runtime.parallel import WorkerCrashError
from repro.runtime.service import (
    ServeService,
    SyntheticSource,
    build_service,
)
from repro.scenario.presets import SCENARIOS
from repro.scenario.spec import DefenseUse, ScenarioSpec
from repro.vec import HAVE_NUMPY


def _spec(**overrides):
    return SCENARIOS.get("k8s-serve").evolve(**overrides)


def _service(workers=0, shards=2, **kwargs):
    kwargs.setdefault("duration", 1.0)
    kwargs.setdefault("rate_pps", 2560.0)
    kwargs.setdefault("report_interval", 0.5)
    return build_service(_spec(shards=shards), workers=workers, **kwargs)


class TestSyntheticSource:
    def _keys(self):
        from repro.scenario.session import Session

        session = Session(_spec())
        return session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )

    def test_deterministic(self):
        keys = self._keys()
        a = [
            (now, [k.packed for k in burst])
            for now, burst in SyntheticSource(
                keys, rate_pps=1000, duration=1.0
            ).batches()
        ]
        b = [
            (now, [k.packed for k in burst])
            for now, burst in SyntheticSource(
                keys, rate_pps=1000, duration=1.0
            ).batches()
        ]
        assert a == b
        assert sum(len(burst) for _, burst in a) == 1000

    def test_laps_cycle_the_key_set(self):
        keys = self._keys()
        total = sum(
            len(burst)
            for _, burst in SyntheticSource(
                keys, rate_pps=len(keys) * 2, duration=1.0
            ).batches()
        )
        assert total == len(keys) * 2  # exactly two laps

    def test_max_packets_caps_the_stream(self):
        keys = self._keys()
        bursts = list(
            SyntheticSource(
                keys, rate_pps=10_000, duration=5.0, max_packets=123
            ).batches()
        )
        assert sum(len(b) for _, b in bursts) == 123

    def test_rejects_bad_parameters(self):
        keys = self._keys()
        with pytest.raises(ValueError):
            SyntheticSource([], rate_pps=100, duration=1.0)
        with pytest.raises(ValueError):
            SyntheticSource(keys, rate_pps=0, duration=1.0)
        with pytest.raises(ValueError):
            SyntheticSource(keys, rate_pps=100, duration=0)


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_and_parallel_views_identical(self, shards):
        serial = _service(workers=0, shards=shards).run()
        parallel = _service(workers=shards, shards=shards).run()
        assert json.dumps(
            serial.deterministic_view(), sort_keys=True
        ) == json.dumps(parallel.deterministic_view(), sort_keys=True)
        assert serial.packets == parallel.packets > 0
        # the feed really reached the paper's 512-mask regime
        assert serial.final["state"]["total_mask_count"] >= 512

    def test_repeated_serial_runs_identical(self):
        a = _service().run()
        b = _service().run()
        assert a.deterministic_view() == b.deterministic_view()

    def test_snapshot_cadence_follows_simulated_time(self):
        report = _service(duration=2.0, report_interval=0.5).run()
        times = [s["state"]["time"] for s in report.snapshots]
        # the first snapshot lands one interval after the first burst
        # (t=0.1+0.5), then every 0.5 simulated seconds; the end-of-
        # stream state is the final snapshot, not a periodic one
        assert len(times) == 3
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.6)
        assert report.final["state"]["time"] == pytest.approx(2.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_broadcast_spans_carry_the_simulated_clock(self, workers):
        """The dispatcher's wrapper clock moves on every burst at any
        shard count (one worker used to leave it at 0.0, stamping every
        mailbox span ``ts=0.0``)."""
        from repro.obs import Telemetry

        telemetry = Telemetry()
        report = _service(workers=workers, duration=2.0,
                          telemetry=telemetry).run()
        stamps = [event.ts for event in telemetry.trace.events()
                  if event.name == "runtime.mailbox.broadcast"]
        assert len(stamps) == len(report.snapshots) + 1
        assert stamps == sorted(stamps) and stamps[0] > 0.0
        assert stamps[-1] == pytest.approx(report.final["state"]["time"])

    def test_detector_trips_on_mask_explosion(self):
        report = _service(detect_threshold=16).run()
        assert report.final["detector"]["alert"]
        assert report.final["state"]["total_mask_count"] == 512


def _without_engine_census(view):
    """A deterministic view minus the ``vec_tss`` census — the one
    block that tells the engines apart by design."""
    def strip(entry):
        state = {k: v for k, v in entry["state"].items() if k != "vec_tss"}
        return {**entry, "state": state}

    return {**view, "series": [strip(s) for s in view["series"]],
            "final": strip(view["final"])}


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestServeHonoursTheEngine:
    """``build_service`` runs the engine the platform picks on either
    runtime (it used to build scalar shards whatever the spec said) —
    observed through the shared encoder's ``vec_tss`` census, which
    also crosses the worker mailbox.  The scalar reference is the
    engine a platform without NumPy runs."""

    def _run(self, workers, **changes):
        spec = SCENARIOS.get("k8s-deepscan").evolve(shards=2, **changes)
        return build_service(spec, workers=workers, duration=1.0,
                             rate_pps=2560.0, report_interval=0.5).run()

    def test_vec_shards_on_both_runtimes_match_the_scalar_run(
            self, monkeypatch):
        vec = {workers: self._run(workers) for workers in (0, 2)}
        for report in vec.values():
            census = report.final["state"]["vec_tss"]
            # the columnar paths together: with a pre-scan in front of
            # every burst the memo may answer all of them
            assert census["scan"] + census["memo"] > 0
            # every packet probes its shard's EMC, and the counters
            # cross the worker mailbox like the census
            assert report.final["state"]["emc"]["lookups"] == report.packets
        views = {w: r.deterministic_view() for w, r in vec.items()}
        assert json.dumps(views[0], sort_keys=True) == \
            json.dumps(views[2], sort_keys=True)
        monkeypatch.setattr("repro.vec.HAVE_NUMPY", False)
        scalar = self._run(0)
        assert not any(scalar.final["state"]["vec_tss"].values())
        assert json.dumps(
            _without_engine_census(views[2]), sort_keys=True
        ) == json.dumps(
            _without_engine_census(scalar.deterministic_view()),
            sort_keys=True,
        )

    def test_pcap_replay_under_the_scalar_engine_equals_the_presets(
            self, tmp_path, monkeypatch):
        from repro.attack.packets import CovertStreamGenerator
        from repro.net.pcap import PcapWriter
        from repro.scenario.session import Session

        spec = SCENARIOS.get("k8s-serve").evolve(shards=2)
        session = Session(spec)
        generator = CovertStreamGenerator(
            list(session.dimensions), dst_ip=session.target.pod_ip,
            space=session.space,
        )
        frames = [bytes(generator.packet_for_key(key).build())
                  for key in generator.keys()]
        path = tmp_path / "covert.pcap"
        with PcapWriter(path) as writer:
            # three laps: the first installs, the rest deep-scan
            writer.write_all(frames * 3, rate_pps=1000.0)

        def replay(spec):
            return build_service(spec, pcap=path, batch_size=64,
                                 report_interval=0.1).run()

        preset = replay(spec)
        monkeypatch.setattr("repro.vec.HAVE_NUMPY", False)
        scalar = replay(spec)
        assert preset.source["extractor"] == "columnar"
        assert preset.packets == 3 * 512 and preset.snapshots
        census = preset.final["state"]["vec_tss"]
        assert census["scan"] + census["memo"] > 0
        assert not any(scalar.final["state"]["vec_tss"].values())
        assert json.dumps(
            _without_engine_census(preset.deterministic_view()),
            sort_keys=True,
        ) == json.dumps(
            _without_engine_census(scalar.deterministic_view()),
            sort_keys=True,
        )


class _StopAfter:
    """Source wrapper that raises a signal (or calls a hook) just
    before yielding burst N — the signal lands mid-loop, exactly like
    an operator's Ctrl-C."""

    def __init__(self, inner, after, action):
        self.inner = inner
        self.after = after
        self.action = action

    def describe(self):
        return self.inner.describe()

    def batches(self):
        for i, item in enumerate(self.inner.batches()):
            if i == self.after:
                self.action()
            yield item


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_reports(self, signum):
        service = _service(duration=5.0)
        service.source = _StopAfter(
            service.source, 3, lambda: os.kill(os.getpid(), signum)
        )
        report = service.run()
        assert report.stopped_by == f"signal:{signal.Signals(signum).name}"
        # the in-flight burst was finished, then the final snapshot
        # flushed at its burst boundary — not a torn stream
        assert report.batches == 4
        assert report.final["state"]["packets"] == report.packets > 0

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        service = _service(duration=0.3)
        seen = {}

        def check():
            seen["during"] = signal.getsignal(signal.SIGINT)

        service.source = _StopAfter(service.source, 1, check)
        service.run()
        assert seen["during"] == service._handle_signal
        assert signal.getsignal(signal.SIGINT) == before

    def test_request_stop(self):
        service = _service(duration=5.0)
        service.request_stop("operator")
        report = service.run()
        assert report.stopped_by == "operator"
        assert report.batches == 1  # stopped right after the first burst

    def test_workers_joined_after_run(self):
        service = _service(workers=2)
        datapath = service.datapath
        service.run()
        assert all(not p.is_alive() for p in datapath._procs)

    def test_killed_worker_is_loud_and_cleaned_up(self):
        service = _service(workers=2, duration=5.0)
        datapath = service.datapath

        def kill_worker():
            victim = datapath._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)

        service.source = _StopAfter(service.source, 3, kill_worker)
        with pytest.raises(WorkerCrashError, match="shard worker 0"):
            service.run()
        # the crash still tore the whole runtime down: no orphans
        assert all(not p.is_alive() for p in datapath._procs)


class TestBuildService:
    def test_defended_specs_rejected(self):
        with pytest.raises(ValueError, match="defenses"):
            build_service(_spec(defenses=(DefenseUse("mask-limit"),)))

    def test_rebalancing_specs_rejected(self):
        with pytest.raises(ValueError, match="auto-lb"):
            build_service(_spec(rebalance_interval=5.0))

    def test_spec_shard_count_drives_serial_runtime(self):
        service = _service(workers=0, shards=4)
        assert len(service.datapath.shards) == 4
        service.run()

    def test_workers_drive_parallel_shard_count(self):
        service = _service(workers=4)
        assert service.datapath.shard_count == 4
        service.run()

    def test_scenario_spec_by_name(self):
        spec = SCENARIOS.get("k8s-serve")
        assert spec.profile == "kernel-noemc"
        assert spec.attack_start == 0.0


class TestServeCliRejectsUnreadableCaptures:
    """A capture that cannot be opened, or is not a pcap, is a one-line
    error before anything is built — it used to be a traceback out of
    the running service."""

    def _serve(self, path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "k8s-serve", "--pcap", str(path)])
        return str(exit_info.value.code)

    def test_missing_file(self, tmp_path):
        message = self._serve(tmp_path / "absent.pcap")
        assert message.startswith("serve 'k8s-serve': ")
        assert "absent.pcap" in message

    def test_not_a_pcap(self, tmp_path):
        path = tmp_path / "hello.pcap"
        path.write_text("hello, this is not a capture at all\n")
        message = self._serve(path)
        assert message.startswith("serve 'k8s-serve': ")
        assert "unknown pcap magic 0x6c6c6568" in message

