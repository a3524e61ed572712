"""Unit tests for the Internet checksum."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, pseudo_header
from repro.testing.predicates import verify_checksum


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padded(self):
        # odd input is padded with a zero byte
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_known_ipv4_header(self):
        # a real IPv4 header with its checksum zeroed checksums to the
        # value wireshark reports (0xb861) for this classic example
        header = bytes.fromhex("45000073000040004011" + "0000" + "c0a80001c0a800c7")
        assert internet_checksum(header) == 0xB861

    @given(st.binary(min_size=2, max_size=64))
    def test_verify_accepts_own_checksum(self, payload):
        # embed the checksum at the end and verify the whole block
        checksum = internet_checksum(payload)
        if len(payload) % 2:
            payload += b"\x00"
        block = payload + checksum.to_bytes(2, "big")
        assert verify_checksum(block)

    @given(st.binary(min_size=0, max_size=64))
    def test_checksum_is_16_bit(self, payload):
        assert 0 <= internet_checksum(payload) <= 0xFFFF


class TestPseudoHeader:
    def test_layout(self):
        pseudo = pseudo_header(0x0A000001, 0x0A000002, 6, 20)
        assert pseudo == bytes.fromhex("0a0000010a000002" + "00" + "06" + "0014")
        assert len(pseudo) == 12
