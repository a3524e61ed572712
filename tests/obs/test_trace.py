"""The span recorder: ring semantics and the two export formats."""

import json

import pytest

from repro.cli import main
from repro.obs import SpanEvent, TraceRecorder


class TestRing:
    def test_records_in_order(self):
        trace = TraceRecorder(capacity=8)
        for i in range(3):
            trace.record("a.b", float(i), shard=i)
        assert [e.ts for e in trace.events()] == [0.0, 1.0, 2.0]
        assert trace.total == 3
        assert trace.dropped == 0

    def test_wrap_overwrites_oldest(self):
        trace = TraceRecorder(capacity=3)
        for i in range(5):
            trace.record("a.b", float(i))
        assert len(trace) == 3
        assert [e.ts for e in trace.events()] == [2.0, 3.0, 4.0]
        assert trace.total == 5
        assert trace.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_args_become_structured_payload(self):
        trace = TraceRecorder()
        trace.record("ovs.revalidator.sweep", 1.5, node="n0", shard=2,
                     evicted=7)
        event = trace.events()[0]
        assert event == SpanEvent(name="ovs.revalidator.sweep", ts=1.5,
                                  node="n0", shard=2,
                                  args={"evicted": 7})


class TestJsonl:
    def test_one_sorted_object_per_line(self):
        trace = TraceRecorder()
        trace.record("a.b", 1.0, node="n0", x=1)
        trace.record("a.c", 2.0)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a.b"
        assert first["args"] == {"x": 1}
        # keys sorted, compact separators: byte-determinism by construction
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True,
                                      separators=(",", ":"))

    def test_empty_trace_exports_empty(self):
        assert TraceRecorder().to_jsonl() == ""


class TestChromeTrace:
    def test_nodes_map_to_pids_shards_to_tids(self):
        trace = TraceRecorder()
        trace.record("ovs.sweep", 1.0, node="n0", shard=0)
        trace.record("ovs.sweep", 1.0, node="n0", shard=1)
        trace.record("fleet.quarantine", 2.0, node="n1")
        doc = trace.to_chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        processes = {e["args"]["name"]: e["pid"] for e in meta
                     if e["name"] == "process_name"}
        assert processes == {"n0": 1, "n1": 2}
        assert [s["tid"] for s in spans] == [1, 2, 0]  # shard+1; -1 -> 0
        assert spans[0]["ts"] == 1.0 * 1e6  # microseconds
        assert spans[0]["cat"] == "ovs"

    def test_empty_trace_has_no_events(self):
        trace = TraceRecorder()
        assert trace.to_chrome_trace()["traceEvents"] == []
        assert trace.summary() == {"events": 0, "recorded": 0,
                                   "dropped": 0}

    def test_bookkeeping_in_other_data(self):
        trace = TraceRecorder(capacity=1)
        trace.record("a.b", 1.0)
        trace.record("a.b", 2.0)
        other = trace.to_chrome_trace()["otherData"]
        assert other == {"clock": "simulated-seconds", "recorded": 2,
                         "dropped": 1}


class TestTraceCommand:
    def test_a_real_runs_artifacts_parse_and_the_trace_is_perfetto_shaped(
        self, tmp_path, capsys
    ):
        assert main(["trace", "k8s-deepscan", "--duration", "15",
                     "--attack-start", "5", "--output", str(tmp_path)]) == 0
        listed = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  k8s-deepscan.")
        ]
        assert sorted(listed) == sorted(p.name for p in tmp_path.iterdir())
        assert {name.split(".", 1)[1] for name in listed} == {
            "trace.json", "trace.jsonl", "profile.json", "metrics.prom",
            "snapshot.json",
        }
        stem = str(tmp_path / "k8s-deepscan")
        for suffix in ("profile.json", "snapshot.json"):
            with open(f"{stem}.{suffix}", encoding="utf-8") as handle:
                assert json.load(handle)
        with open(f"{stem}.trace.jsonl", encoding="utf-8") as handle:
            assert [json.loads(line)["name"] for line in handle]
        with open(f"{stem}.metrics.prom", encoding="utf-8") as handle:
            assert "repro_sim_cycles_charged" in handle.read()

        with open(f"{stem}.trace.json", encoding="utf-8") as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert events
        assert {e["ph"] for e in events} == {"M", "X"}
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        for span in (e for e in events if e["ph"] == "X"):
            for key in ("ts", "dur", "pid", "tid"):
                assert isinstance(span[key], (int, float)), (span, key)
        assert json.loads(json.dumps(doc)) == doc

    def test_a_run_that_ends_before_its_attack_exits_cleanly(
        self, tmp_path, capsys
    ):
        assert main(["trace", "calico", "--duration", "20",
                     "--output", str(tmp_path)]) == 0
        assert "pre=1.00 Gbps post=n/a\n" in capsys.readouterr().out
        assert len(list(tmp_path.iterdir())) == 5
