"""Wire-format parsing back into layer chains.

:func:`parse_ethernet` is the single entry point: it dissects an
Ethernet frame into the same layer objects the crafting API produces, so
``parse_ethernet(pkt.build())`` round-trips every field the library can
set.  Unknown or truncated protocols degrade gracefully to ``Raw``.
"""

from __future__ import annotations

from repro.net.arp import Arp
from repro.net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    Ethernet,
    Vlan,
)
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4
from repro.net.l4 import Icmp, Tcp, Udp
from repro.net.layers import Layer, Raw


class ParseError(ValueError):
    """Raised when a frame is too short to contain the advertised header."""


def parse_ethernet(data: bytes) -> Ethernet:
    """Parse an Ethernet frame and its nested layers from wire bytes."""
    if len(data) < Ethernet.HEADER_LEN:
        raise ParseError(f"frame too short for Ethernet: {len(data)} bytes")
    eth = Ethernet(
        dst=data[0:6],
        src=data[6:12],
        ethertype=int.from_bytes(data[12:14], "big"),
    )
    eth.payload = _parse_ethertype(eth.ethertype or 0, data[14:])
    return eth


def _parse_ethertype(ethertype: int, data: bytes) -> Layer | None:
    # 802.1Q tags stack, and how deep is the sender's choice: walk them
    # in a loop (linear time, constant stack), not one call per tag
    outer = innermost = None
    offset = 0
    while (ethertype == ETHERTYPE_VLAN
           and len(data) - offset >= Vlan.HEADER_LEN):
        tci = int.from_bytes(data[offset:offset + 2], "big")
        ethertype = int.from_bytes(data[offset + 2:offset + 4], "big")
        vlan = Vlan(
            vid=tci & 0x0FFF,
            pcp=(tci >> 13) & 0x7,
            dei=(tci >> 12) & 0x1,
            ethertype=ethertype,
        )
        if innermost is None:
            outer = vlan
        else:
            innermost.payload = vlan
        innermost = vlan
        offset += Vlan.HEADER_LEN
    inner = _parse_untagged(ethertype, data[offset:])
    if innermost is None:
        return inner
    innermost.payload = inner
    return outer


def _parse_untagged(ethertype: int, data: bytes) -> Layer | None:
    if not data:
        return None
    if ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(data)
    if ethertype == ETHERTYPE_ARP:
        return _parse_arp(data)
    return Raw(data)


def _parse_arp(data: bytes) -> Layer:
    if len(data) < Arp.HEADER_LEN:
        return Raw(data)
    arp = Arp(
        op=int.from_bytes(data[6:8], "big"),
        sender_mac=data[8:14],
        sender_ip=int.from_bytes(data[14:18], "big"),
        target_mac=data[18:24],
        target_ip=int.from_bytes(data[24:28], "big"),
    )
    if len(data) > Arp.HEADER_LEN:
        arp.payload = Raw(data[Arp.HEADER_LEN:])
    return arp


def _parse_ipv4(data: bytes) -> Layer:
    if len(data) < IPv4.HEADER_LEN:
        return Raw(data)
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        return Raw(data)
    ihl_bytes = (version_ihl & 0x0F) * 4
    if ihl_bytes < IPv4.HEADER_LEN or len(data) < ihl_bytes:
        return Raw(data)
    total_length = int.from_bytes(data[2:4], "big")
    flags_frag = int.from_bytes(data[6:8], "big")
    ip = IPv4(
        src=int.from_bytes(data[12:16], "big"),
        dst=int.from_bytes(data[16:20], "big"),
        proto=data[9],
        ttl=data[8],
        tos=data[1],
        ident=int.from_bytes(data[4:6], "big"),
        flags=flags_frag >> 13,
        frag_offset=flags_frag & 0x1FFF,
    )
    end = min(len(data), total_length) if total_length >= ihl_bytes else len(data)
    body = data[ihl_bytes:end]
    ip.payload = _parse_ip_proto(data[9], body)
    return ip


def _parse_ip_proto(proto: int, data: bytes) -> Layer | None:
    if not data:
        return None
    if proto == PROTO_TCP:
        return _parse_tcp(data)
    if proto == PROTO_UDP:
        return _parse_udp(data)
    if proto == PROTO_ICMP:
        return _parse_icmp(data)
    return Raw(data)


def _parse_tcp(data: bytes) -> Layer:
    if len(data) < Tcp.HEADER_LEN:
        return Raw(data)
    data_offset = (data[12] >> 4) * 4
    if data_offset < Tcp.HEADER_LEN or len(data) < data_offset:
        return Raw(data)
    tcp = Tcp(
        sport=int.from_bytes(data[0:2], "big"),
        dport=int.from_bytes(data[2:4], "big"),
        seq=int.from_bytes(data[4:8], "big"),
        ack=int.from_bytes(data[8:12], "big"),
        flags=data[13],
        window=int.from_bytes(data[14:16], "big"),
        urgent=int.from_bytes(data[18:20], "big"),
    )
    if len(data) > data_offset:
        tcp.payload = Raw(data[data_offset:])
    return tcp


def _parse_udp(data: bytes) -> Layer:
    if len(data) < Udp.HEADER_LEN:
        return Raw(data)
    udp = Udp(
        sport=int.from_bytes(data[0:2], "big"),
        dport=int.from_bytes(data[2:4], "big"),
    )
    if len(data) > Udp.HEADER_LEN:
        udp.payload = Raw(data[Udp.HEADER_LEN:])
    return udp


def _parse_icmp(data: bytes) -> Layer:
    if len(data) < Icmp.HEADER_LEN:
        return Raw(data)
    icmp = Icmp(
        icmp_type=data[0],
        code=data[1],
        ident=int.from_bytes(data[4:6], "big"),
        seq=int.from_bytes(data[6:8], "big"),
    )
    if len(data) > Icmp.HEADER_LEN:
        icmp.payload = Raw(data[Icmp.HEADER_LEN:])
    return icmp
