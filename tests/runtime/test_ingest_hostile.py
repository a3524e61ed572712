"""Hostile capture input: ``repro serve`` counts and skips malformed
data — a runt frame, an oversized ``incl_len``, a capture cut short —
and never raises out of the ingest loop or reads without bound; a frame
of thousands of stacked VLAN tags costs linear time and no stack."""

import struct

import pytest

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.net.addresses import ip_to_int
from repro.net.pcap import (
    MAX_SNAPLEN,
    PcapReader,
    PcapTruncatedError,
    PcapWriter,
)
from repro.obs import Telemetry
from repro.runtime.service import PcapSource, build_service
from repro.scenario.presets import SCENARIOS

RECORD = struct.Struct("<IIII")


def _frames(count):
    _, dimensions = kubernetes_attack_policy()
    generator = CovertStreamGenerator(
        dimensions, dst_ip=ip_to_int("10.0.9.10")
    )
    return [bytes(generator.packet_for_key(key).build())
            for key in generator.keys()[:count]]


def _capture(path, frames, snaplen=65535):
    with PcapWriter(path, snaplen=snaplen) as writer:
        writer.write_all(frames)
    return path


def _malformed(telemetry):
    return {
        dict(labels)["reason"]: instrument.value
        for name, labels, instrument in telemetry.series()
        if name == "serve.ingest.malformed"
    }


def _drain(source):
    return [key for _, batch in source.batches() for key in batch]


class TestPcapReaderBounds:
    def test_oversized_incl_len_is_clamped_to_the_snaplen(self, tmp_path):
        frames = _frames(3)
        path = _capture(tmp_path / "big.pcap", frames[:1], snaplen=64)
        # a crafted record claiming 200 captured bytes under a 64-byte
        # snaplen, followed by an honest one
        with open(path, "ab") as handle:
            handle.write(RECORD.pack(1, 0, 200, 200) + b"\xAA" * 200)
            handle.write(RECORD.pack(2, 0, 60, 60) + frames[2])
        reader = PcapReader(path)
        packets = reader.read_all()
        assert [len(p.data) for p in packets] == [60, 64, 60]
        assert packets[2].data == frames[2]  # the stream stayed in sync
        assert reader.oversized_records == 1

    def test_incl_len_beyond_the_file_never_allocates(self, tmp_path):
        path = _capture(tmp_path / "huge.pcap", _frames(1))
        with open(path, "ab") as handle:
            handle.write(RECORD.pack(1, 0, 0xFFFF_FFF0, 0xFFFF_FFF0) + b"x")
        reader = PcapReader(path)
        seen = []
        with pytest.raises(PcapTruncatedError, match="mid-packet"):
            for packet in reader:
                seen.append(packet)
        assert len(seen) == 1

    def test_zero_snaplen_falls_back_to_the_libpcap_cap(self, tmp_path):
        path = tmp_path / "nosnap.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0, 1)
        body = b"\x55" * (MAX_SNAPLEN + 10)
        path.write_bytes(
            header + RECORD.pack(0, 0, len(body), len(body)) + body
        )
        reader = PcapReader(path)
        assert [len(p.data) for p in reader] == [MAX_SNAPLEN]
        assert reader.oversized_records == 1

    def test_truncation_is_still_a_value_error(self, tmp_path):
        # the pre-existing contract: callers catching ValueError keep working
        assert issubclass(PcapTruncatedError, ValueError)


class TestPcapSourceSkipsAndCounts:
    def test_runt_frame_mid_capture(self, tmp_path):
        frames = _frames(6)
        hostile = frames[:3] + [b"\x01\x02\x03\x04\x05\x06"] + frames[3:]
        clean = PcapSource(_capture(tmp_path / "clean.pcap", frames),
                           batch_size=4)
        telemetry = Telemetry()
        source = PcapSource(_capture(tmp_path / "runt.pcap", hostile),
                            batch_size=4, telemetry=telemetry)
        assert _drain(source) == _drain(clean)
        assert source.malformed == 1
        assert clean.malformed == 0
        assert _malformed(telemetry) == {"runt_frame": 1}

    def test_truncated_last_record_ends_the_stream(self, tmp_path):
        frames = _frames(5)
        path = _capture(tmp_path / "cut.pcap", frames)
        path.write_bytes(path.read_bytes()[:-7])
        telemetry = Telemetry()
        source = PcapSource(path, batch_size=2, telemetry=telemetry)
        keys = _drain(source)
        assert len(keys) == 4  # everything before the cut is delivered
        assert _malformed(telemetry) == {"truncated_capture": 1}

    def test_oversized_record_is_counted_and_clamped(self, tmp_path):
        frames = _frames(2)
        path = _capture(tmp_path / "big.pcap", frames, snaplen=60)
        with open(path, "ab") as handle:
            handle.write(RECORD.pack(9, 0, 90, 90) + frames[0] + b"\0" * 30)
        telemetry = Telemetry()
        source = PcapSource(path, telemetry=telemetry)
        keys = _drain(source)
        assert len(keys) == 3 and keys[2] == keys[0]
        assert _malformed(telemetry) == {"oversized_record": 1}

    def test_counts_without_telemetry(self, tmp_path):
        path = _capture(tmp_path / "runt.pcap", [b"\x00" * 6] + _frames(1))
        source = PcapSource(path)
        assert len(_drain(source)) == 1
        assert source.malformed == 1


class TestServeSurvivesHostileCapture:
    def test_serve_run_completes_and_exports_the_counter(self, tmp_path):
        frames = _frames(40)
        hostile = frames[:20] + [b"\xde\xad\xbe\xef\x00\x01"] + frames[20:]
        path = _capture(tmp_path / "hostile.pcap", hostile)
        path.write_bytes(path.read_bytes()[:-5])  # and a torn tail
        spec = SCENARIOS.get("k8s-serve").evolve(shards=2)
        telemetry = Telemetry()
        report = build_service(spec, pcap=path, batch_size=16,
                               telemetry=telemetry).run()
        assert report.stopped_by == "end-of-stream"
        assert report.packets == 39  # 40 frames minus the torn last one
        assert _malformed(telemetry) == {
            "runt_frame": 1, "truncated_capture": 1,
        }

    @pytest.mark.parametrize("tags", [500, 5000])
    def test_vlan_tag_bomb_mid_capture_yields_a_key(self, tmp_path, tags):
        # one 802.1Q tag per parser recursion used to be one frame that
        # raised RecursionError — not a ParseError — out of the service
        frames = _frames(8)
        bomb = (frames[0][:12] + b"\x81\x00"
                + b"\x00\x01\x81\x00" * (tags - 1) + b"\x00\x01\x08\x00"
                + frames[0][14:])
        path = _capture(tmp_path / "bomb.pcap",
                        frames[:4] + [bomb] + frames[4:])
        keys = _drain(PcapSource(path, batch_size=4))
        assert len(keys) == 9
        assert keys[4].get("eth_type") == 0x8100
        assert keys[:4] + keys[5:] == _drain(
            PcapSource(_capture(tmp_path / "clean.pcap", frames))
        )
        spec = SCENARIOS.get("k8s-serve").evolve(shards=2)
        report = build_service(spec, pcap=path, batch_size=4).run()
        assert report.stopped_by == "end-of-stream"
        assert report.packets == 9

    def test_clean_capture_reports_nothing(self, tmp_path):
        path = _capture(tmp_path / "clean.pcap", _frames(24))
        spec = SCENARIOS.get("k8s-serve").evolve(shards=2)
        telemetry = Telemetry()
        report = build_service(spec, pcap=path, batch_size=8,
                               telemetry=telemetry).run()
        assert report.packets == 24
        assert _malformed(telemetry) == {}
