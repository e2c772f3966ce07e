"""Unit tests for the Ethernet/IPv4/UDP codecs."""

import pytest

from repro.net import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    IPv4Address,
    IPv4Header,
    MACAddress,
    UDPHeader,
    ipv4_checksum,
)


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example header.
        header = bytes.fromhex(
            "450000730000400040110000c0a80001c0a800c7"
        )
        checksum = ipv4_checksum(header)
        assert checksum == 0xB861

    def test_checksum_of_valid_header_is_zero(self):
        header = IPv4Header(
            src=IPv4Address("1.2.3.4"), dst=IPv4Address("5.6.7.8")
        ).pack()
        assert ipv4_checksum(header) == 0

    def test_odd_length_padded(self):
        assert ipv4_checksum(b"\xff") == ipv4_checksum(b"\xff\x00")


class TestEthernetHeader:
    def test_roundtrip(self):
        header = EthernetHeader(
            dst=MACAddress(2), src=MACAddress(1), ethertype=0x86DD
        )
        parsed, rest = EthernetHeader.parse(header.pack() + b"tail")
        assert parsed == header
        assert rest == b"tail"

    def test_length(self):
        assert len(EthernetHeader(MACAddress(1), MACAddress(2)).pack()) == 14

    def test_truncated_rejected(self):
        with pytest.raises(HeaderError):
            EthernetHeader.parse(b"\x00" * 13)

    def test_bad_ethertype_rejected(self):
        header = EthernetHeader(MACAddress(1), MACAddress(2),
                                ethertype=0x1_0000)
        with pytest.raises(HeaderError):
            header.pack()


class TestIPv4Header:
    def make(self, **kwargs):
        defaults = dict(src=IPv4Address("10.0.0.1"),
                        dst=IPv4Address("10.0.0.2"),
                        total_length=100)
        defaults.update(kwargs)
        return IPv4Header(**defaults)

    def test_roundtrip(self):
        header = self.make(ttl=17, identification=0xBEEF, protocol=6)
        parsed, rest = IPv4Header.parse(header.pack() + b"xyz")
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.ttl == 17
        assert parsed.identification == 0xBEEF
        assert parsed.protocol == 6
        assert rest == b"xyz"

    def test_checksum_verified_on_parse(self):
        raw = bytearray(self.make().pack())
        raw[8] ^= 0xFF  # corrupt the TTL
        with pytest.raises(HeaderError, match="checksum"):
            IPv4Header.parse(bytes(raw))

    def test_checksum_check_can_be_skipped(self):
        raw = bytearray(self.make().pack())
        raw[8] ^= 0xFF
        header, __ = IPv4Header.parse(bytes(raw), verify_checksum=False)
        assert header.ttl == 64 ^ 0xFF

    def test_non_ipv4_version_rejected(self):
        raw = bytearray(self.make().pack())
        raw[0] = 0x65  # version 6
        with pytest.raises(HeaderError, match="version"):
            IPv4Header.parse(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(HeaderError):
            IPv4Header.parse(b"\x45" + b"\x00" * 10)

    def test_options_cannot_be_packed(self):
        header = self.make(ihl=6)
        with pytest.raises(HeaderError):
            header.pack()

    def test_total_length_bounds(self):
        with pytest.raises(HeaderError):
            self.make(total_length=19).pack()
        with pytest.raises(HeaderError):
            self.make(total_length=0x10000).pack()

    def test_header_length_property(self):
        assert self.make().header_length == 20
        assert self.make(ihl=6).header_length == 24


class TestUDPHeader:
    def test_roundtrip(self):
        header = UDPHeader(src_port=1234, dst_port=12000, length=108)
        parsed, rest = UDPHeader.parse(header.pack() + b"payload")
        assert parsed == header
        assert rest == b"payload"

    def test_truncated_rejected(self):
        with pytest.raises(HeaderError):
            UDPHeader.parse(b"\x00" * 7)

    def test_port_bounds(self):
        with pytest.raises(HeaderError):
            UDPHeader(src_port=-1, dst_port=1).pack()
        with pytest.raises(HeaderError):
            UDPHeader(src_port=1, dst_port=0x10000).pack()

    def test_bad_length_field_rejected(self):
        raw = UDPHeader(src_port=1, dst_port=2, length=8).pack()
        corrupted = raw[:4] + (3).to_bytes(2, "big") + raw[6:]
        with pytest.raises(HeaderError):
            UDPHeader.parse(corrupted)


class TestFlowKeyHelpers:
    """The shared flow-identity codec used by the apps and the NFs."""

    def make_udp(self, src="10.0.0.1", dst="10.0.0.2",
                 src_port=1000, dst_port=2000):
        from repro.net import Packet

        return Packet.udp(
            src_mac=MACAddress(0x02_00_00_00_00_01),
            dst_mac=MACAddress(0x02_00_00_00_00_02),
            src_ip=IPv4Address(src),
            dst_ip=IPv4Address(dst),
            src_port=src_port,
            dst_port=dst_port,
            payload=b"x" * 16,
        )

    def test_flow_key_field_order(self):
        from repro.net.headers import flow_key

        packet = self.make_udp()
        assert flow_key(packet) == (
            int(IPv4Address("10.0.0.1")), int(IPv4Address("10.0.0.2")),
            1000, 2000,
        )

    def test_source_key_is_src_ip(self):
        from repro.net.headers import flow_key, source_key

        packet = self.make_udp(src="192.168.7.9")
        assert source_key(packet) == int(IPv4Address("192.168.7.9"))
        assert source_key(packet) == flow_key(packet)[0]

    def test_non_udp_rejected(self):
        from repro.net import Packet
        from repro.net.headers import flow_key, source_key

        arp = Packet(EthernetHeader(
            src=MACAddress(1), dst=MACAddress(2), ethertype=0x0806
        ).pack() + bytes(46))
        with pytest.raises(HeaderError):
            flow_key(arp)
        with pytest.raises(HeaderError):
            source_key(arp)


class TestDestinationIp:
    """The forwarding lookup key: from the carried header stack when a
    frame has one, else from a parse that never raises."""

    def test_built_frame_and_its_copy_skip_the_parse(self, monkeypatch):
        from repro.net import Packet
        from repro.net.headers import destination_ip

        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("239.1.2.3"),
            src_port=1, dst_port=2, payload=b"x" * 16,
        )
        copy = packet.copy()

        def no_parse(cls, *args, **kwargs):
            raise AssertionError("IPv4Header.parse called")

        monkeypatch.setattr(IPv4Header, "parse", classmethod(no_parse))
        assert destination_ip(packet) == IPv4Address("239.1.2.3")
        assert destination_ip(copy) == IPv4Address("239.1.2.3")

    def test_raw_frames_still_parse(self):
        from repro.net import Packet
        from repro.net.headers import destination_ip

        ether = EthernetHeader(src=MACAddress(1), dst=MACAddress(2),
                               ethertype=ETHERTYPE_IPV4).pack()
        ip = IPv4Header(src=IPv4Address("10.0.0.1"),
                        dst=IPv4Address("10.0.0.9")).pack()
        assert destination_ip(Packet(ether + ip)) == IPv4Address("10.0.0.9")
        arp = EthernetHeader(src=MACAddress(1), dst=MACAddress(2),
                             ethertype=0x0806).pack() + bytes(46)
        assert destination_ip(Packet(arp)) is None
        assert destination_ip(Packet(ether + ip[:10])) is None
        assert destination_ip(Packet(bytes(8))) is None
