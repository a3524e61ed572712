"""The Internet checksum (RFC 1071) used by IPv4, TCP, UDP and ICMP."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit ones'-complement checksum of ``data``.

    Odd-length input is padded with a trailing zero byte, per RFC 1071.
    The returned value is ready to be written into the header field (the
    complement has already been taken).
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, proto: int, l4_length: int) -> bytes:
    """Build the IPv4 pseudo header that TCP and UDP checksums cover."""
    return b"".join(
        (
            src_ip.to_bytes(4, "big"),
            dst_ip.to_bytes(4, "big"),
            b"\x00",
            proto.to_bytes(1, "big"),
            l4_length.to_bytes(2, "big"),
        )
    )
