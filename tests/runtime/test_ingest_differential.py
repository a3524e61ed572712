"""The ingest edge, searched by machine: two implementations of one
spec, generated hostile captures, any disagreement is a bug.

The spec is the per-frame path — one ``handle.read`` per record header
and per packet, one :func:`~repro.flow.extract.flow_key_from_packet`
per frame — kept here, whole, as the oracle.  Held to it:

* :meth:`PcapReader.blocks` (and the per-record view over it) on
  records, stamps, ``oversized_records`` and where a cut is reported,
  at three refill sizes; and
* :meth:`PcapSource.batches` on keys, each key's pre-filled ``packed``
  and ``rss`` (the steering hash, against the oracle key's software
  derivation), burst stamps by ``repr``, burst boundaries and ``malformed`` by
  reason — with the columnar branch taking its share of the frames,
  with NumPy patched away, and with a field space the columnar branch
  does not serve.
"""

import functools
import os
import struct
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow.extract import flow_key_from_packet
from repro.flow.fields import OVS_FIELDS, FieldSpace, FieldSpec
from repro.net import pcap
from repro.net.arp import Arp
from repro.net.ethernet import Ethernet, Vlan
from repro.net.ipv4 import IPv4
from repro.net.l4 import Icmp, Tcp, Udp
from repro.net.layers import Raw
from repro.net.parse import ParseError
from repro.net.pcap import MAX_SNAPLEN, PcapReader, PcapTruncatedError
from repro.obs import Telemetry
from repro.flow.key import FlowKey
from repro.runtime.service import PcapSource
from repro.util.bits import rss_hash
from repro.vec import HAVE_NUMPY

REFILLS = (64, 1000, pcap.REFILL_BYTES)


# -- the oracle --------------------------------------------------------------

def oracle_records(path):
    """The per-record reader ``PcapReader.__iter__`` was before the
    block walker: ``(records, oversized, cut)`` with ``cut`` the
    truncation message, if the capture ends inside a record."""
    records, oversized = [], 0
    with open(path, "rb") as handle:
        header = handle.read(24)
        endian = "<" if header[:4] == b"\xd4\xc3\xb2\xa1" else ">"
        snaplen = struct.unpack(endian + "IHHiIII", header)[5]
        limit = min(snaplen or MAX_SNAPLEN, MAX_SNAPLEN)
        left = os.fstat(handle.fileno()).st_size - 24
        record = struct.Struct(endian + "IIII")
        while True:
            raw = handle.read(record.size)
            if not raw:
                return records, oversized, None
            if len(raw) < record.size:
                return records, oversized, "mid-record"
            ts_sec, ts_usec, incl_len, _orig_len = record.unpack(raw)
            left -= record.size + incl_len
            if left < 0:
                return records, oversized, "mid-packet"
            if incl_len > limit:
                oversized += 1
                data = handle.read(limit)
                handle.seek(incl_len - limit, os.SEEK_CUR)
            else:
                data = handle.read(incl_len)
            records.append((ts_sec + ts_usec / 1_000_000, data))


def oracle_batches(path, space, batch_size):
    """``PcapSource.batches`` as it was over that reader: ``(bursts,
    malformed by reason)``."""
    records, oversized, cut = oracle_records(path)
    malformed = Counter()
    bursts, batch, last = [], [], 0.0
    for stamp, data in records:
        try:
            key = flow_key_from_packet(data, in_port=0, space=space)
        except ParseError:
            malformed["runt_frame"] += 1
            continue
        batch.append(key)
        last = stamp
        if len(batch) >= batch_size:
            bursts.append((last, batch))
            batch = []
    if cut is not None:
        malformed["truncated_capture"] += 1
    if oversized:
        malformed["oversized_record"] += oversized
    if batch:
        bursts.append((last, batch))
    return bursts, dict(malformed)


# -- generated captures ------------------------------------------------------

addresses = st.integers(0, 2**32 - 1)
ports = st.integers(0, 65535)
payloads = st.binary(max_size=24).map(Raw)


#: weighted towards the shape real captures are made of (and, like
#: ``SHAPES`` below, with the common case at both ends of the list,
#: where hypothesis likes to draw)
L3_KINDS = ["tcp", "udp", "icmp", "other", "arp"] + ["udp"] * 2 + ["tcp"] * 4


@st.composite
def l3(draw, kinds=L3_KINDS):
    """Whatever rides under the Ethernet header (and any VLAN tags)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "arp":
        return Arp(sender_ip=draw(addresses), target_ip=draw(addresses))
    ip = IPv4(src=draw(addresses), dst=draw(addresses),
              flags=draw(st.integers(0, 7)),
              frag_offset=draw(st.sampled_from([0, 0, 0, 185])))
    if kind == "icmp":
        return ip / Icmp(draw(st.integers(0, 255)), draw(st.integers(0, 255)))
    if kind == "other":
        ip.proto = draw(st.integers(0, 255))
        return ip / draw(payloads)
    l4 = Tcp if kind == "tcp" else Udp
    return ip / l4(sport=draw(ports), dport=draw(ports)) / draw(payloads)


def _with_ip_options(frame, words, filler):
    """IHL raised by ``words`` with that many option words spliced in
    behind the fixed header (lengths and checksum left lying)."""
    frame[14] = 0x40 | (5 + words)
    frame[34:34] = bytes([filler]) * (4 * words)
    return frame


#: what a record is built as, and what is then done to it; the plain
#: case sits at both ends, where hypothesis likes to draw
SHAPES = ["plain", "junk", "vlan", "vlan", "options"] + ["plain"] * 15
DAMAGE = (["none", "flip", "header-flip", "header-flip", "truncate"]
          + ["none"] * 5)
LENGTH_LIES = [0] * 100 + [-3, 5, 70_000] + [0] * 100
#: byte values on either side of a condition the parser walks
EDGES = [0x00, 0x01, 0x06, 0x08, 0x11, 0x13, 0x14, 0x15, 0x40, 0x44, 0x45,
         0x46, 0x4F, 0x50, 0x55, 0x60, 0x81, 0xF0, 0xFF]
byte_values = st.one_of(st.sampled_from(EDGES), st.integers(0, 255))


@st.composite
def frames(draw, shapes=SHAPES, damages=DAMAGE, kinds=L3_KINDS):
    """One record's bytes: a crafted frame, then maybe damage."""
    shape = draw(st.sampled_from(shapes))
    if shape == "junk":  # sometimes longer than a snaplen or a refill
        size = draw(st.sampled_from([0, 5, 13, 14, 33, 300, 3000, 70_000,
                                     300_000]))
        # never zero: behind a lying length, a zero-filled body reads as
        # thousands of empty records (an empty record is the size-0 junk)
        return bytes([draw(st.integers(1, 255))]) * size
    inner = draw(l3(kinds))
    if shape == "vlan":
        for vid in draw(st.lists(st.integers(0, 4095), min_size=1,
                                 max_size=3)):
            inner = Vlan(vid=vid) / inner
    frame = bytearray((Ethernet() / inner).build())
    if shape == "options" and isinstance(inner, IPv4):
        frame = _with_ip_options(frame, draw(st.integers(1, 10)),
                                 draw(st.integers(0, 255)))
    damage = draw(st.sampled_from(damages))
    if damage == "flip":  # bytes anywhere
        for _ in range(draw(st.integers(1, 3))):
            frame[draw(st.integers(0, len(frame) - 1))] = draw(
                st.integers(0, 255))
    elif damage == "header-flip":  # a byte the columnar conditions read
        offset = draw(st.sampled_from([12, 13, 14, 15, 16, 17, 23, 46]))
        if offset < len(frame):
            frame[offset] = draw(byte_values)
    elif damage == "truncate":  # runts included
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame)


#: a record of any shape, whose header now and then lies about its
#: length (the walk then reads whatever follows as record headers)
any_record = st.tuples(frames(), st.sampled_from(LENGTH_LIES))
#: a record the columnar branch takes (a plain IPv4 TCP/UDP frame, even
#: cut to the smallest snaplen) and one it hands to the reference (a
#: VLAN tag, IP options, ARP/ICMP or junk), both undamaged and honest
columnar_record = st.tuples(
    frames(["plain"], ["none"], ["tcp", "udp"]), st.just(0))
reference_record = st.tuples(
    frames(["vlan", "options", "junk"], ["none"]), st.just(0))


@st.composite
def captures(draw):
    """A whole capture file's bytes and how to read it.

    A long capture is made of triples — a columnar record, a reference
    record, a record of any shape — so each branch takes at least a
    third of the records read before a lie or the final cut ends the
    walk, whatever the corpus draws."""
    endian = draw(st.sampled_from("<>"))
    snaplen = draw(st.sampled_from([0, 60, 96, 2000, 65535]))
    out = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)]
    record = struct.Struct(endian + "IIII")
    triples = st.tuples(columnar_record, reference_record, any_record)
    records = draw(st.one_of(
        st.lists(any_record, max_size=3),
        st.lists(triples, min_size=6, max_size=16).map(
            lambda drawn: [one for triple in drawn for one in triple]),
    ))
    for frame, lie in records:
        sec = draw(st.integers(0, 2**32 - 1))
        usec = draw(st.integers(0, 999_999))
        incl_len = max(0, len(frame) + lie)
        out.append(record.pack(sec, usec, incl_len, len(frame)) + frame)
    data = b"".join(out)
    cut = draw(st.one_of(st.just(0), st.integers(1, 40)))
    if cut:
        data = data[:max(24, len(data) - cut)]
    return {
        "data": data,
        "refill": draw(st.sampled_from(REFILLS)),
        "batch_size": draw(st.sampled_from([1, 3, 16, 256])),
    }


def _counted(telemetry, name, label):
    return {
        dict(labels)[label]: instrument.value
        for series, labels, instrument in telemetry.series()
        if series == name
    }


def _check_batches(path, space, batch_size):
    """Run ``PcapSource.batches`` against the oracle; returns the
    frames-by-path census."""
    telemetry = Telemetry()
    source = PcapSource(path, space=space, batch_size=batch_size,
                        telemetry=telemetry)
    bursts = list(source.batches())
    expected, malformed = oracle_batches(path, space, batch_size)
    assert [len(keys) for _, keys in bursts] == \
        [len(keys) for _, keys in expected]
    assert [repr(stamp) for stamp, _ in bursts] == \
        [repr(stamp) for stamp, _ in expected]
    for (_, got), (_, want) in zip(bursts, expected):
        assert got == want
        for key, oracle in zip(got, want):
            assert all(type(value) is int for value in key.values)
            assert type(key.packed) is int
            assert key.packed == space.pack(key.values)
            assert type(key.rss) is int
            assert key.rss == oracle.rss
    assert _counted(telemetry, "serve.ingest.malformed", "reason") == malformed
    assert source.malformed == sum(malformed.values())
    census = _counted(telemetry, "serve.ingest.frames", "path")
    assert census == {path: n for path, n in source.frames.items() if n}
    assert sum(census.values()) == len(oracle_records(path)[0])
    return source.frames


def _property(max_examples):
    # the tests below assert floors on what the corpus covered (frame
    # totals, branch shares): the suite's derandomized profile draws the
    # same corpus on every run, so they are met or fail every time
    return settings(max_examples=max_examples, deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))


# -- the reader --------------------------------------------------------------

def _reader_view(path):
    reader = PcapReader(path)
    records, cut = [], None
    try:
        for buf, starts, lengths, stamps in reader.blocks():
            assert len(starts) == len(lengths) == len(stamps) > 0
            records += [(stamp, buf[start:start + length])
                        for start, length, stamp in zip(starts, lengths, stamps)]
    except PcapTruncatedError as exc:
        cut = str(exc).rsplit(" ", 1)[-1]
    packets, iter_cut = [], None
    per_record = PcapReader(path)
    try:
        for packet in per_record:
            packets.append((packet.timestamp, packet.data))
    except PcapTruncatedError as exc:
        iter_cut = str(exc).rsplit(" ", 1)[-1]
    assert (packets, iter_cut) == (records, cut)
    assert per_record.oversized_records == reader.oversized_records
    return records, reader.oversized_records, cut


@functools.cache
def _fixture_captures():
    """The hand-built captures of ``tests/net/test_pcap.py`` and
    ``test_ingest_hostile.py``, as file bytes."""
    little = struct.Struct("<IIII")
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    udp = [
        bytes((Ethernet() / IPv4(src="10.0.0.1", dst="10.0.0.2")
               / Udp(sport=i, dport=80)).build())
        for i in range(2000)
    ]
    clean = header + b"".join(
        little.pack(i // 820, i % 820, len(f), len(f)) + f
        for i, f in enumerate(udp)
    )
    snap64 = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 64, 1)
    nosnap = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0, 1)
    body = b"\x55" * (MAX_SNAPLEN + 10)
    return {
        "clean": clean,
        "empty": header,
        "cut-mid-packet": clean[:-7],
        "cut-mid-record": clean[:-(len(udp[-1]) + 9)],
        "cut-at-a-boundary": clean[:-(len(udp[-1]) + 16)],
        "oversized": (snap64 + little.pack(0, 0, 42, 42) + udp[0]
                      + little.pack(1, 0, 200, 200) + b"\xAA" * 200
                      + little.pack(2, 0, 42, 42) + udp[2]),
        "incl-len-beyond-the-file": (
            header + little.pack(0, 0, 42, 42) + udp[0]
            + little.pack(1, 0, 0xFFFF_FFF0, 0xFFFF_FFF0) + b"x"),
        "zero-snaplen": (nosnap + little.pack(0, 0, len(body), len(body))
                         + body + little.pack(3, 4, 42, 42) + udp[1]),
        "big-endian": (
            struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
            + struct.pack(">IIII", 1, 2, 3, 3) + b"abc"),
        "runt-first": (header + little.pack(0, 0, 6, 6) + b"\0" * 6
                       + little.pack(0, 5, 42, 42) + udp[0]),
    }


class TestBlocksEqualPerRecordIteration:
    @pytest.mark.parametrize("refill", REFILLS)
    @pytest.mark.parametrize("name", sorted(_fixture_captures()))
    def test_fixture(self, tmp_path, monkeypatch, name, refill):
        monkeypatch.setattr(pcap, "REFILL_BYTES", refill)
        path = tmp_path / f"{name}.pcap"
        path.write_bytes(_fixture_captures()[name])
        assert _reader_view(path) == oracle_records(path)

    def test_a_block_is_bounded_by_the_refill_not_the_capture(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(pcap, "REFILL_BYTES", 4096)
        path = tmp_path / "clean.pcap"
        path.write_bytes(_fixture_captures()["clean"])
        sizes = [len(buf) for buf, *_ in PcapReader(path).blocks()]
        assert len(sizes) > 20 and max(sizes) < 4096 + 58


# -- the source --------------------------------------------------------------

@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_columnar_ingest_equals_the_per_frame_oracle(tmp_path, monkeypatch):
    path = tmp_path / "generated.pcap"
    taken = Counter()

    @_property(120)
    @given(captures())
    def check(capture):
        monkeypatch.setattr(pcap, "REFILL_BYTES", capture["refill"])
        path.write_bytes(capture["data"])
        assert _reader_view(path) == oracle_records(path)
        taken.update(_check_batches(path, OVS_FIELDS, capture["batch_size"]))

    check()
    # the corpus exercises both branches, not one and a rounding error
    assert min(taken["columnar"], taken["reference"]) >= \
        0.25 * sum(taken.values()) > 100


#: a 5-tuple that reaches the fold's one-round case (``ip_src == 0``
#: and ``ip_dst < 2**24``: nothing of the masked key above bit 64) as
#: often as its two-round case
five_tuples = st.tuples(
    st.one_of(st.just(0), addresses),
    st.one_of(st.integers(0, 2**24 - 1), addresses),
    st.integers(0, 255), ports, ports,
)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_the_block_hash_fold_is_the_scalar_hash():
    """``rss_hashes`` over the extractor's two halves equals the scalar
    ``rss_hash`` of each key masked to the steering fields, whatever
    the fields the mask drops hold."""
    import numpy as np

    from repro.vec.ingest import rss_hashes

    rounds = Counter()

    @_property(200)
    @given(st.lists(st.tuples(five_tuples, ports, ports), min_size=1,
                    max_size=40))
    def check(rows):
        high = np.array([src << 32 | dst for (src, dst, *_), _, _ in rows],
                        dtype=np.uint64)
        low = np.array([proto << 32 | sport << 16 | dport
                        for (_, _, proto, sport, dport), _, _ in rows],
                       dtype=np.uint64)
        expected = []
        for (src, dst, proto, sport, dport), in_port, eth_type in rows:
            packed = FlowKey(OVS_FIELDS, {
                "in_port": in_port, "eth_type": eth_type, "ip_src": src,
                "ip_dst": dst, "ip_proto": proto, "tp_src": sport,
                "tp_dst": dport,
            }).packed & OVS_FIELDS.rss_mask
            rounds["one" if packed >> 64 == 0 else "two"] += 1
            expected.append(rss_hash(packed))
        assert rss_hashes(high, low).tolist() == expected

    check()
    assert min(rounds["one"], rounds["two"]) > 100, rounds


TOY_SPACE = FieldSpace(
    [FieldSpec("ip_src", 32), FieldSpec("tp_dst", 16)], name="toy"
)


@pytest.mark.parametrize("numpy_present, space", [
    (False, OVS_FIELDS),
    (True, TOY_SPACE),
], ids=["numpy-absent", "non-ovs-space"])
def test_the_reference_serves_alone(tmp_path, monkeypatch, numpy_present,
                                    space):
    """Without NumPy, or for a space the columnar branch does not
    serve, the same property holds with every frame on the reference
    path — and the source says so."""
    if not numpy_present:
        monkeypatch.setattr("repro.vec.ingest.HAVE_NUMPY", False)
    path = tmp_path / "generated.pcap"
    taken = Counter()

    @_property(40)
    @given(captures())
    def check(capture):
        monkeypatch.setattr(pcap, "REFILL_BYTES", capture["refill"])
        path.write_bytes(capture["data"])
        assert PcapSource(path, space=space).describe()["extractor"] == \
            "reference"
        taken.update(_check_batches(path, space, capture["batch_size"]))

    check()
    assert taken["reference"] > 100 and not taken["columnar"]
