"""Field-level tests for each protocol header."""

import pytest

from repro.net.addresses import ip_to_int
from repro.net.arp import OP_REPLY, OP_REQUEST, Arp
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_VLAN, Ethernet, Vlan
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4
from repro.net.l4 import Icmp, Tcp, Udp
from repro.testing.predicates import verify_checksum


class TestEthernet:
    def test_ethertype_inferred_from_ipv4(self):
        assert (Ethernet() / IPv4()).effective_ethertype() == ETHERTYPE_IPV4

    def test_ethertype_inferred_from_arp(self):
        assert (Ethernet() / Arp()).effective_ethertype() == ETHERTYPE_ARP

    def test_ethertype_inferred_from_vlan(self):
        assert (Ethernet() / Vlan(vid=5)).effective_ethertype() == ETHERTYPE_VLAN

    def test_explicit_ethertype_wins(self):
        eth = Ethernet(ethertype=0x1234)
        assert (eth / IPv4()).effective_ethertype() == 0x1234

    def test_wire_layout(self):
        frame = Ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02").build()
        assert frame[0:6] == bytes.fromhex("020000000002")  # dst first
        assert frame[6:12] == bytes.fromhex("020000000001")


class TestVlan:
    def test_tci_encoding(self):
        frame = (Ethernet() / Vlan(vid=100, pcp=5, dei=1) / IPv4()).build()
        tci = int.from_bytes(frame[14:16], "big")
        assert tci & 0x0FFF == 100
        assert (tci >> 13) == 5
        assert (tci >> 12) & 1 == 1

    def test_bad_vid_rejected(self):
        with pytest.raises(ValueError):
            Vlan(vid=4096)
        with pytest.raises(ValueError):
            Vlan(pcp=8)


class TestArp:
    def test_request_layout(self):
        arp = Arp(
            op=OP_REQUEST,
            sender_mac="02:00:00:00:00:01",
            sender_ip="10.0.0.1",
            target_ip="10.0.0.2",
        )
        data = arp.build()
        assert int.from_bytes(data[0:2], "big") == 1       # htype ethernet
        assert int.from_bytes(data[2:4], "big") == 0x0800  # ptype ipv4
        assert data[4] == 6 and data[5] == 4
        assert int.from_bytes(data[6:8], "big") == OP_REQUEST
        assert int.from_bytes(data[14:18], "big") == ip_to_int("10.0.0.1")

    def test_summary(self):
        assert "who-has" in Arp(op=OP_REQUEST).summary()
        assert "is-at" in Arp(op=OP_REPLY).summary()


class TestIPv4:
    def test_proto_inference(self):
        assert (IPv4() / Tcp()).effective_proto() == PROTO_TCP
        assert (IPv4() / Udp()).effective_proto() == PROTO_UDP
        assert (IPv4() / Icmp()).effective_proto() == PROTO_ICMP

    def test_header_checksum_valid(self):
        header = (IPv4(src="10.0.0.1", dst="10.0.0.2") / Tcp()).build()[:20]
        assert verify_checksum(header)

    def test_version_and_ihl(self):
        data = IPv4(src="1.1.1.1", dst="2.2.2.2").build()
        assert data[0] == 0x45

    def test_ttl_and_tos(self):
        data = IPv4(src="1.1.1.1", dst="2.2.2.2", ttl=17, tos=0x2E).build()
        assert data[8] == 17 and data[1] == 0x2E

    def test_oversize_rejected(self):
        from repro.net.layers import Raw
        with pytest.raises(ValueError):
            (IPv4(src="1.1.1.1", dst="2.2.2.2") / Raw(b"x" * 65536)).build()


class TestTcp:
    def test_ports_on_wire(self):
        seg = (IPv4(src="10.0.0.1", dst="10.0.0.2") / Tcp(sport=40000, dport=80)).build()[20:]
        assert int.from_bytes(seg[0:2], "big") == 40000
        assert int.from_bytes(seg[2:4], "big") == 80

    def test_checksum_covers_pseudo_header(self):
        from repro.net.checksum import internet_checksum, pseudo_header
        packet = IPv4(src="10.0.0.1", dst="10.0.0.2") / Tcp(sport=1, dport=2)
        segment = packet.build()[20:]
        pseudo = pseudo_header(ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), PROTO_TCP, len(segment))
        assert internet_checksum(pseudo + segment) == 0

    def test_checksum_zero_without_ip_parent(self):
        segment = Tcp(sport=1, dport=2).build()
        assert segment[16:18] == b"\x00\x00"

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            Tcp(sport=65536)
        with pytest.raises(ValueError):
            Tcp(dport=-1)


class TestUdp:
    def test_length_field(self):
        from repro.net.layers import Raw
        datagram = (IPv4(src="1.1.1.1", dst="2.2.2.2") / Udp(sport=1, dport=2) / Raw(b"abcd")).build()[20:]
        assert int.from_bytes(datagram[4:6], "big") == 12

    def test_checksum_never_zero_with_ip(self):
        from repro.net.checksum import internet_checksum, pseudo_header
        datagram = (IPv4(src="0.0.0.0", dst="0.0.0.0") / Udp(sport=0, dport=0)).build()[20:]
        checksum = int.from_bytes(datagram[6:8], "big")
        assert checksum != 0  # RFC 768: transmitted as all-ones instead


class TestIcmp:
    def test_echo_request_checksum(self):
        data = Icmp(icmp_type=Icmp.TYPE_ECHO_REQUEST, ident=7, seq=9).build()
        assert verify_checksum(data)
        assert data[0] == 8 and data[1] == 0

    def test_summary(self):
        assert "echo-req" in Icmp().summary()
