"""Block flow extraction: captured frames → flow keys, a block at a time.

:func:`~repro.flow.extract.flow_key_from_packet` is the spec — one
frame in, one layer stack, one :class:`~repro.flow.key.FlowKey` out —
and the only extractor that reads every frame shape.  A replayed
capture is nearly all one shape, though (Ethernet II / IPv4 without
options / TCP or UDP), and for that shape the key sits at fixed byte
offsets.  :class:`FlowExtractor` gathers those bytes for a whole
:meth:`~repro.net.pcap.PcapReader.blocks` block at once, evaluates the
conditions the parser walks to get there, and builds the keys of the
frames that pass straight from the gathered columns, their packed
integer and their RSS steering hash pre-filled (the hash folded for the
whole block by :func:`rss_hashes`).  Every other frame — VLAN, IP
options, ARP, ICMP, short or lying lengths, runts — goes through the
per-frame parser, unchanged, and so does every frame when NumPy is
absent or the field space is not the OVS layout; its key takes the
hash in software, on first dispatch.

The columnar branch may only *accept* a frame whose key it can prove
equal to the oracle's; ``tests/runtime/test_ingest_differential.py``
searches for a disagreement over generated hostile captures.
"""

from __future__ import annotations

from repro.flow.extract import flow_key_from_packet
from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.net.ethernet import ETHERTYPE_IPV4, Ethernet
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, IPv4
from repro.net.l4 import Tcp, Udp
from repro.net.parse import ParseError
from repro.vec import HAVE_NUMPY, require_numpy

np = require_numpy("columnar flow extraction") if HAVE_NUMPY else None

#: the 19 frame bytes that decide and carry the key of the common shape:
#: EtherType, version/IHL, total length, protocol, addresses + ports,
#: TCP data offset
_OFFSETS = (12, 13, 14, 16, 17, 23, *range(26, 38), 46)
_ETHERTYPE, _VERSION_IHL, _TOTAL_LENGTH, _PROTO = 0, 2, 3, 5
_ADDRESSES, _PORTS, _TCP_OFFSET = slice(6, 14), slice(14, 18), 18
_IPV4_HIGH, _IPV4_LOW = divmod(ETHERTYPE_IPV4, 256)
#: IPv4 with a 20-byte header: no options to step over
_VERSION4_IHL5 = 0x45
#: where the destination address sits in the packed layout: the
#: extractor's high half (both addresses) lies above it, its low half
#: (protocol and ports) below
_DST_SHIFT = OVS_FIELDS.offset_of("ip_dst")


def rss_hashes(high: "np.ndarray", low: "np.ndarray") -> "np.ndarray":
    """Each masked key's :func:`~repro.util.bits.rss_hash`, for a
    block at once — bit-identical to the scalar fold, which stays the
    reference.

    ``high`` and ``low`` are the extractor's two ``uint64`` halves of a
    key's steering fields (``ip_src << 32 | ip_dst`` and
    ``ip_proto << 32 | tp_src << 16 | tp_dst``), so the masked key is
    ``high << 40 | low``.  ``rss_hash`` folds it 64 bits at a time: one
    splitmix round over its low 64 bits (``dst << 40 | low``: the
    ``uint64`` shift drops the rest), then a second round over
    ``high >> 24`` only where that is nonzero.
    """
    multiplier, mix_shift = np.uint64(0xBF58476D1CE4E5B9), np.uint64(31)
    word = high << np.uint64(_DST_SHIFT) | low
    mixed = (np.uint64(0x9E3779B97F4A7C15) ^ word) * multiplier
    mixed ^= mixed >> mix_shift
    above = high >> np.uint64(64 - _DST_SHIFT)
    folded = (mixed ^ above) * multiplier
    folded ^= folded >> mix_shift
    return np.where(above != 0, folded, mixed)


class FlowExtractor:
    """Flow keys for blocks of captured frames.

    Which branch a frame takes is decided from what the code observes —
    the frame's bytes, whether NumPy imported, the field space — never
    from an option; ``columnar`` says whether the fast branch exists at
    all for this space on this interpreter.
    """

    def __init__(self, space: FieldSpace = OVS_FIELDS, in_port: int = 0) -> None:
        self.space = space
        self.in_port = in_port
        self.columnar = HAVE_NUMPY and space == OVS_FIELDS
        if self.columnar:
            # the bits every accepted frame shares (range-checked here,
            # once, as the oracle checks them per frame)
            self._base = FlowKey(
                space, {"in_port": in_port, "eth_type": ETHERTYPE_IPV4}
            ).packed
            self._gather = np.array([_OFFSETS], dtype=np.intp)

    @property
    def name(self) -> str:
        return "columnar" if self.columnar else "reference"

    def extract(self, buf: bytes, starts: list[int],
                lengths: list[int]) -> tuple[list[FlowKey | None], int]:
        """``(keys, columnar)``: one key per frame of the block, in
        order — ``None`` where the oracle raises :class:`ParseError` —
        and how many of them the columnar branch built."""
        if not self.columnar:
            return [self._reference(buf[start:start + length])
                    for start, length in zip(starts, lengths)], 0
        accepted, keys = self._columnar(buf, starts, lengths)
        if len(keys) == len(starts):
            return keys, len(keys)
        merged: list[FlowKey | None] = []
        built = iter(keys)
        for start, length, ok in zip(starts, lengths, accepted.tolist()):
            merged.append(
                next(built) if ok
                else self._reference(buf[start:start + length])
            )
        return merged, len(keys)

    def _reference(self, frame: bytes) -> FlowKey | None:
        try:
            return flow_key_from_packet(
                frame, in_port=self.in_port, space=self.space
            )
        except ParseError:
            return None

    def _columnar(self, buf: bytes, starts: list[int],
                  lengths: list[int]) -> tuple["np.ndarray", list[FlowKey]]:
        """Which frames of the block have the common shape (a boolean
        per frame), and their keys.  The conditions are :mod:`repro.net.parse`'s own, in its
        order; each implies every byte it reads lies inside the frame,
        so what the clipped gather fetched past a short frame's end is
        never consulted."""
        data = np.frombuffer(buf, dtype=np.uint8)
        start = np.array(starts, dtype=np.intp)
        caplen = np.array(lengths, dtype=np.intp)
        header = data[np.minimum(start.reshape(-1, 1) + self._gather,
                                 len(buf) - 1)]
        total_length = (header[:, _TOTAL_LENGTH].astype(np.intp) << 8
                        | header[:, _TOTAL_LENGTH + 1])
        ip_len = caplen - Ethernet.HEADER_LEN
        body = np.where(total_length >= IPv4.HEADER_LEN,
                        np.minimum(ip_len, total_length),
                        ip_len) - IPv4.HEADER_LEN
        proto = header[:, _PROTO]
        data_offset = (header[:, _TCP_OFFSET] >> 4) * 4
        accept = (
            (header[:, _ETHERTYPE] == _IPV4_HIGH)
            & (header[:, _ETHERTYPE + 1] == _IPV4_LOW)
            & (header[:, _VERSION_IHL] == _VERSION4_IHL5)
            & (((proto == PROTO_TCP) & (body >= Tcp.HEADER_LEN)
                & (data_offset >= Tcp.HEADER_LEN) & (body >= data_offset))
               | ((proto == PROTO_UDP) & (body >= Udp.HEADER_LEN)))
        )
        if not accept.all():
            header = header[accept]
            proto = header[:, _PROTO]
        address = np.ascontiguousarray(header[:, _ADDRESSES]).view(">u4")
        port = np.ascontiguousarray(header[:, _PORTS]).view(">u2")
        src, dst = address[:, 0], address[:, 1]
        sport, dport = port[:, 0], port[:, 1]
        # the packed key in two uint64 halves: both addresses above,
        # protocol and ports below (the layout is OVS_FIELDS' own)
        (_, _, src_shift, dst_shift,
         proto_shift, sport_shift, _) = self.space.offsets
        high = src.astype(np.uint64) << np.uint64(src_shift - dst_shift) | dst
        low = (proto.astype(np.uint64) << np.uint64(proto_shift)
               | sport.astype(np.uint64) << np.uint64(sport_shift)
               | dport)
        space, in_port, base = self.space, self.in_port, self._base
        from_forms = FlowKey.from_forms
        keys = [
            from_forms(
                space,
                (in_port, ETHERTYPE_IPV4, s, d, p, sp, dp),
                base | h << dst_shift | lo,
                rss,
            )
            for s, d, p, sp, dp, h, lo, rss in zip(
                src.tolist(), dst.tolist(), proto.tolist(), sport.tolist(),
                dport.tolist(), high.tolist(), low.tolist(),
                rss_hashes(high, low).tolist(),
            )
        ]
        return accept, keys
