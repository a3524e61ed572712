"""The Telemetry registry: naming, kinds, labels, clock, snapshot."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    METRIC_NAME_RE,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)


class TestNaming:
    def test_dotted_lowercase_names_accepted(self):
        tele = Telemetry()
        tele.counter("sim.attacker.packets")
        tele.gauge("serve.datapath.mask_count")
        tele.histogram("sim.victim.avg_cycles")
        assert len(tele.series()) == 3

    @pytest.mark.parametrize("bad", [
        "packets",            # single segment
        "Sim.attacker",       # uppercase
        "sim..attacker",      # empty segment
        "sim.2attacker",      # digit-led segment
        "sim.attacker-rate",  # dash
        "",
    ])
    def test_malformed_names_rejected(self, bad):
        tele = Telemetry()
        with pytest.raises(ValueError):
            tele.counter(bad)
        assert not METRIC_NAME_RE.match(bad)

    def test_kind_conflict_rejected(self):
        tele = Telemetry()
        tele.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            tele.gauge("a.b")

    def test_same_name_and_labels_share_one_instrument(self):
        tele = Telemetry()
        a = tele.counter("a.b", node="n0")
        b = tele.counter("a.b", node="n0")
        c = tele.counter("a.b", node="n1")
        assert a is b
        assert a is not c


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc(2.0)
        counter.inc()
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_replaces(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram(bounds=(10.0, 100.0))
        for value in (5.0, 10.0, 50.0, 1000.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 1065.0
        assert hist.counts == [2, 1, 1]  # <=10, <=100, +Inf
        assert hist.cumulative() == [(10.0, 2), (100.0, 3),
                                     (float("inf"), 4)]

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(100.0, 10.0))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestClock:
    def test_advance_clamps_monotonic(self):
        tele = Telemetry()
        tele.advance(5.0)
        tele.advance(3.0)
        assert tele.clock == 5.0
        tele.advance(7.5)
        assert tele.clock == 7.5


class TestSnapshot:
    def test_schema_and_sorted_series(self):
        tele = Telemetry()
        tele.counter("z.last", node="n1").inc(3)
        tele.counter("a.first").inc()
        tele.counter("z.last", node="n0").inc()
        tele.advance(4.0)
        snap = tele.snapshot()
        assert snap["schema"] == "repro.obs/v1"
        assert snap["clock"] == 4.0
        names = [(m["name"], m["labels"]) for m in snap["metrics"]]
        assert names == [
            ("a.first", {}),
            ("z.last", {"node": "n0"}),
            ("z.last", {"node": "n1"}),
        ]
        assert snap["trace"] == {"events": 0, "recorded": 0, "dropped": 0}
        assert snap["profile"]["total_cycles"] == 0.0


class TestAttach:
    def _datapath(self, shards):
        from repro.scenario.presets import SCENARIOS
        from repro.scenario.session import Session

        spec = SCENARIOS.get("k8s-deepscan").evolve(shards=shards)
        return Session(spec).build_datapath()

    def test_attach_wires_shard_revalidators(self):
        from repro.ovs.pmd import shard_views

        tele = Telemetry()
        datapath = self._datapath(shards=2)
        tele.attach(datapath)
        for index, shard in enumerate(shard_views(datapath)):
            assert shard.revalidator.trace is tele.trace
            assert shard.revalidator.trace_shard == index
        assert datapath.rebalancer.trace is tele.trace

    def test_attach_single_shard_uses_whole_datapath_lane(self):
        tele = Telemetry()
        datapath = self._datapath(shards=1)
        tele.attach(datapath)
        assert datapath.revalidator.trace_shard == -1


class TestOffIsNone:
    """Telemetry off is ``telemetry=None``: nothing is attached or
    registered, and a fresh registry is an ordinary, truthy object."""

    def test_empty_snapshot_matches_schema(self):
        snap = Telemetry().snapshot()
        assert snap["schema"] == "repro.obs/v1"
        assert snap["clock"] == 0.0
        assert snap["metrics"] == []
        assert snap["trace"] == {"events": 0, "recorded": 0, "dropped": 0}
        assert snap["profile"]["total_cycles"] == 0.0

    def test_empty_registry_is_truthy(self):
        tele = Telemetry()
        assert tele.series() == []
        assert tele

    @pytest.mark.parametrize("shards", [1, 2])
    def test_simulator_attaches_nothing(self, shards):
        from repro.ovs.pmd import shard_views
        from repro.scenario.presets import SCENARIOS
        from repro.scenario.session import Session

        session = Session(SCENARIOS.get("k8s-deepscan").evolve(shards=shards))
        datapath = session.build_datapath()
        simulator = session.simulator(datapath)
        simulator.step()
        assert simulator.telemetry is None
        for shard in shard_views(datapath):
            assert shard.revalidator.trace is None

    def test_service_attaches_nothing(self):
        from repro.ovs.pmd import shard_views
        from repro.runtime.service import build_service
        from repro.scenario.presets import SCENARIOS

        service = build_service(
            SCENARIOS.get("k8s-serve").evolve(shards=2), max_packets=64,
            batch_size=16, report_interval=0.01,
        )
        report = service.run()
        assert report.packets == 64
        assert service.telemetry is None
        assert service._wire_counters is None
        for shard in shard_views(service.datapath):
            assert shard.revalidator.trace is None
