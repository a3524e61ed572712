"""Exporter determinism and the pure-observation contract.

Same seed → byte-identical Prometheus text and trace JSONL across
runs — including a 2-shard parallel serve run, whose worker metric
deltas arrive over the mailbox in pinned shard order — and enabling
telemetry never perturbs a single series value.
"""

import json

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.fleet import FleetSession, FleetSpec
from repro.net.addresses import ip_to_int
from repro.net.pcap import PcapWriter
from repro.obs import Telemetry
from repro.obs.export import prometheus_text, telemetry_json
from repro.runtime.service import build_service
from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session


def _scenario_spec():
    return SCENARIOS.get("k8s-deepscan").evolve(
        duration=15.0, attack_start=5.0
    )


def _serve_report(workers, telemetry, shards=2):
    service = build_service(
        SCENARIOS.get("k8s-serve").evolve(shards=shards),
        workers=workers,
        duration=1.0,
        rate_pps=2560.0,
        report_interval=0.5,
        telemetry=telemetry,
    )
    return service.run()


def _hostile_capture(path, count=40):
    """``count`` covert frames with a runt frame mid-capture and the
    last record torn off."""
    _, dimensions = kubernetes_attack_policy()
    generator = CovertStreamGenerator(
        dimensions, dst_ip=ip_to_int("10.0.9.10")
    )
    frames = [bytes(generator.packet_for_key(key).build())
              for key in generator.keys()[:count]]
    frames.insert(count // 2, b"\xde\xad\xbe\xef\x00\x01")
    with PcapWriter(path) as writer:
        writer.write_all(frames)
    path.write_bytes(path.read_bytes()[:-5])
    return path


def _serve_exports(workers, shards=2):
    telemetry = Telemetry()
    report = _serve_report(workers, telemetry, shards)
    return (prometheus_text(telemetry), telemetry.trace.to_jsonl(),
            report.deterministic_view())


class TestScenarioExportDeterminism:
    def test_same_seed_byte_identical_exports(self):
        exports = []
        for _ in range(2):
            telemetry = Telemetry()
            Session(_scenario_spec(), telemetry=telemetry).run()
            exports.append((
                prometheus_text(telemetry),
                telemetry.trace.to_jsonl(),
                telemetry_json(telemetry),
                json.dumps(telemetry.trace.to_chrome_trace(),
                           sort_keys=True),
            ))
        assert exports[0] == exports[1]
        assert exports[0][0]  # non-empty: the run actually instrumented

    def test_profile_total_equals_charged_counter(self):
        telemetry = Telemetry()
        Session(_scenario_spec(), telemetry=telemetry).run()
        charged = sum(
            instrument.value
            for name, _labels, instrument in telemetry.series()
            if name == "sim.cycles.charged"
        )
        assert telemetry.profile.total > 0
        assert abs(telemetry.profile.total - charged) <= 1e-9 * charged


class TestPureObservation:
    def test_enabled_telemetry_keeps_series_bit_identical(self):
        plain = Session(_scenario_spec()).run()
        telemetry = Telemetry()
        observed = Session(_scenario_spec(), telemetry=telemetry).run()
        assert plain.series.columns == observed.series.columns
        assert plain.series.rows == observed.series.rows
        assert len(telemetry.series()) > 0  # telemetry genuinely on

    def test_scan_stats_identical_either_way(self):
        plain = Session(_scenario_spec()).run()
        observed = Session(_scenario_spec(), telemetry=Telemetry()).run()
        assert plain.scan_stats() == observed.scan_stats()

    def test_one_node_fleet_series_identical_either_way(self):
        spec = FleetSpec(name="obs-fleet", scenario=_scenario_spec(),
                         nodes=1, mobility="static")
        plain = FleetSession(spec).run()
        telemetry = Telemetry()
        observed = FleetSession(spec, telemetry=telemetry).run()
        assert plain.node_series[0].rows == observed.node_series[0].rows
        assert plain.aggregate.rows == observed.aggregate.rows
        assert len(telemetry.series()) > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_serve_view_identical_either_way(self, workers):
        telemetry = Telemetry()
        plain = _serve_report(workers, None)
        observed = _serve_report(workers, telemetry)
        assert plain.deterministic_view() == observed.deterministic_view()
        assert len(telemetry.series()) > 0

    def test_serve_over_pcap_identical_either_way(self, tmp_path):
        path = _hostile_capture(tmp_path / "hostile.pcap")
        runs = []
        for telemetry in (None, Telemetry()):
            service = build_service(
                SCENARIOS.get("k8s-serve").evolve(shards=2), pcap=path,
                batch_size=16, report_interval=0.01, telemetry=telemetry,
            )
            report = service.run()
            runs.append((report.deterministic_view(),
                         service.source.malformed,
                         dict(service.source.frames)))
        assert runs[0] == runs[1]
        _view, malformed, frames = runs[0]
        assert malformed == 2  # the runt frame and the torn tail
        assert sum(frames.values()) == 40
        published = {
            name: sum(i.value for n, _labels, i in telemetry.series()
                      if n == name)
            for name in ("serve.ingest.malformed", "serve.ingest.frames")
        }
        assert published == {"serve.ingest.malformed": malformed,
                             "serve.ingest.frames": 40}


class TestServeExportDeterminism:
    def test_serial_serve_byte_identical_across_runs(self):
        a = _serve_exports(workers=0)
        b = _serve_exports(workers=0)
        assert a == b

    def test_parallel_serve_byte_identical_across_runs(self):
        a = _serve_exports(workers=2)
        b = _serve_exports(workers=2)
        assert a == b

    def test_serial_and_parallel_wire_counters_match(self):
        serial_prom, _tr, serial_view = _serve_exports(workers=0)
        parallel_prom, _tr2, parallel_view = _serve_exports(workers=2)

        def wire(text):
            return sorted(
                line for line in text.splitlines()
                if line.startswith("repro_serve_batch_")
                and not line.startswith("# ")
            )

        assert wire(serial_prom) == wire(parallel_prom)
        assert serial_view == parallel_view


class TestFleetExportDeterminism:
    def test_one_node_fleet_byte_identical_across_runs(self):
        def run_once():
            telemetry = Telemetry()
            FleetSession(
                FleetSpec(name="obs-fleet", scenario=_scenario_spec(),
                          nodes=1, mobility="static"),
                telemetry=telemetry,
            ).run()
            return (prometheus_text(telemetry),
                    telemetry.trace.to_jsonl())

        assert run_once() == run_once()
