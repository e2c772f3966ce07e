"""Unit tests for the Packet abstraction."""

import pytest

from repro.net import HeaderError, IPv4Address, MACAddress, Packet
from repro.net.headers import EthernetHeader


def make_udp(payload=b"hello", **kwargs):
    defaults = dict(
        src_mac=MACAddress(1),
        dst_mac=MACAddress(2),
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("10.0.0.2"),
        src_port=1111,
        dst_port=2222,
    )
    defaults.update(kwargs)
    return Packet.udp(payload=payload, **defaults)


class TestPacket:
    def test_udp_roundtrip(self):
        packet = make_udp(b"gradient data")
        ether, ip, udp, payload = packet.parse_udp()
        assert ether.src == MACAddress(1)
        assert ip.dst == IPv4Address("10.0.0.2")
        assert udp.src_port == 1111
        assert payload == b"gradient data"

    def test_wire_length(self):
        packet = make_udp(b"x" * 10)
        assert len(packet) == 14 + 20 + 8 + 10
        assert packet.bits == len(packet) * 8

    def test_flow_key_from_five_tuple(self):
        a = make_udp()
        b = make_udp()
        c = make_udp(src_port=9999)
        assert a.flow_key == b.flow_key
        assert a.flow_key != c.flow_key

    def test_packet_ids_unique_and_increasing(self):
        a, b = make_udp(), make_udp()
        assert b.packet_id > a.packet_id

    def test_copy_preserves_bytes_new_identity(self):
        packet = make_udp()
        packet.meta["tag"] = 1
        clone = packet.copy()
        assert clone.data == packet.data
        assert clone.flow_key == packet.flow_key
        assert clone.meta == packet.meta
        assert clone.packet_id != packet.packet_id

    def test_split_head_tail(self):
        packet = make_udp(b"z" * 400)
        head, tail = packet.split(192)
        assert len(head) == 192
        assert head + tail == packet.data

    def test_split_short_packet_has_empty_tail(self):
        packet = make_udp(b"tiny")
        head, tail = packet.split(192)
        assert head == packet.data
        assert tail == b""

    def test_split_invalid_head_size(self):
        with pytest.raises(ValueError):
            make_udp().split(0)

    def test_parse_udp_rejects_non_ip(self):
        ether = EthernetHeader(MACAddress(1), MACAddress(2), ethertype=0x0806)
        packet = Packet(ether.pack() + bytes(46))
        with pytest.raises(HeaderError):
            packet.parse_udp()

    @pytest.mark.parametrize("dst_mac,dst_ip", [
        (MACAddress(2), IPv4Address("10.0.0.2")),
        (MACAddress("01:00:5e:01:02:03"), IPv4Address("239.1.2.3")),
    ], ids=["unicast", "multicast"])
    def test_built_frame_carries_its_parse(self, monkeypatch, dst_mac,
                                           dst_ip):
        packet = make_udp(bytearray(b"grads" * 9), dst_mac=dst_mac,
                          dst_ip=dst_ip, ttl=17)
        parsed = Packet(packet.data).parse_udp()

        def no_parse(data):
            raise AssertionError("a built frame was parsed again")

        monkeypatch.setattr(EthernetHeader, "parse", no_parse)
        for frame in (packet, packet.copy()):
            stack = frame.parse_udp()
            assert stack == parsed
            assert repr(stack) == repr(parsed)
            assert type(stack[3]) is bytes

    def test_payload_trimmed_to_udp_length(self):
        # Ethernet frames can carry padding beyond the UDP datagram.
        packet = make_udp(b"abc")
        padded = Packet(packet.data + b"\x00" * 20, flow_key=packet.flow_key)
        __, __, __, payload = padded.parse_udp()
        assert payload == b"abc"
