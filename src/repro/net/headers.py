"""Byte-accurate Ethernet, IPv4, and UDP header codecs.

Each header class packs to and parses from wire format.  The Trio and PISA
models parse these headers exactly as real hardware would -- by offset into
the packet head bytes -- so the codecs here are the single source of truth
for field layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.net.addressing import IPv4Address, MACAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packet -> headers)
    from repro.net.packet import Packet

__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "EthernetHeader",
    "FlowKey",
    "HeaderError",
    "IPv4Header",
    "UDPHeader",
    "destination_ip",
    "flow_key",
    "ipv4_checksum",
    "source_key",
]

#: Canonical 5-tuple-minus-protocol flow identity used by every consumer
#: of per-flow state: (src_ip, dst_ip, src_port, dst_port) as plain ints.
FlowKey = Tuple[int, int, int, int]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_UDP = 17


class HeaderError(ValueError):
    """Raised when a header fails to parse or has inconsistent fields."""


def flow_key(packet: "Packet") -> FlowKey:
    """Extract the canonical UDP flow key from a packet.

    This is the single flow-identity codec shared by the telemetry and
    firewall data paths (both the Trio applications and the
    :mod:`repro.nf` modules) — previously each application parsed and
    tupled the headers itself, and the copies had already started to
    drift in field order conventions.  Raises :class:`HeaderError` when
    the frame is not Ethernet/IPv4/UDP.
    """
    __, ip, udp, __ = packet.parse_udp()
    return (int(ip.src), int(ip.dst), udp.src_port, udp.dst_port)


def source_key(packet: "Packet") -> int:
    """Extract the source-IP key used for per-source (DDoS) state.

    Same contract as :func:`flow_key`: raises :class:`HeaderError` on a
    non-UDP frame, so callers treat unparseable traffic uniformly.
    """
    __, ip, __, __ = packet.parse_udp()
    return int(ip.src)


def destination_ip(packet: "Packet") -> Optional[IPv4Address]:
    """The destination address forwarding looks up (PFE, router, Tofino).

    Unlike :func:`flow_key` this never raises: it returns ``None`` when
    the frame is not Ethernet/IPv4, and the caller drops or punts it.
    """
    try:
        __, rest = packet.parse_ethernet()
        ip, __ = IPv4Header.parse(rest, verify_checksum=False)
    except HeaderError:
        return None
    return ip.dst


def ipv4_checksum(data: bytes) -> int:
    """RFC 1071 one's-complement checksum over ``data``.

    ``data`` is zero-padded to an even length.  Returns the 16-bit
    checksum value to place in the header.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: MACAddress
    src: MACAddress
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def pack(self) -> bytes:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise HeaderError(f"ethertype out of range: {self.ethertype:#x}")
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        """Parse from ``data``; returns (header, remaining bytes)."""
        if len(data) < cls.LENGTH:
            raise HeaderError(
                f"Ethernet header needs {cls.LENGTH} bytes, got {len(data)}"
            )
        dst = MACAddress.from_bytes(data[0:6])
        src = MACAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype), data[14:]


@dataclass
class IPv4Header:
    """20-byte IPv4 header (no options) with checksum support.

    ``total_length`` covers the IP header plus everything after it.
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int = IPPROTO_UDP
    total_length: int = 20
    identification: int = 0
    ttl: int = 64
    dscp: int = 0
    flags: int = 0
    fragment_offset: int = 0
    version: int = 4
    ihl: int = 5

    MIN_LENGTH = 20

    @property
    def header_length(self) -> int:
        """Header length in bytes, from the IHL field."""
        return self.ihl * 4

    def pack(self) -> bytes:
        if self.ihl != 5:
            raise HeaderError("only option-less IPv4 headers (IHL=5) can be packed")
        if not 20 <= self.total_length <= 0xFFFF:
            raise HeaderError(f"bad total_length: {self.total_length}")
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (self.version << 4) | self.ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        checksum = ipv4_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def parse(cls, data: bytes, verify_checksum: bool = True
              ) -> Tuple["IPv4Header", bytes]:
        """Parse from ``data``; returns (header, remaining bytes)."""
        if len(data) < cls.MIN_LENGTH:
            raise HeaderError(
                f"IPv4 header needs {cls.MIN_LENGTH} bytes, got {len(data)}"
            )
        version_ihl = data[0]
        version = version_ihl >> 4
        ihl = version_ihl & 0x0F
        if version != 4:
            raise HeaderError(f"not an IPv4 packet (version={version})")
        if ihl < 5:
            raise HeaderError(f"bad IHL: {ihl}")
        header_length = ihl * 4
        if len(data) < header_length:
            raise HeaderError("truncated IPv4 header (options exceed buffer)")
        (
            __,
            dscp_ecn,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src_raw,
            dst_raw,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        if verify_checksum and ipv4_checksum(data[:header_length]) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        header = cls(
            src=IPv4Address.from_bytes(src_raw),
            dst=IPv4Address.from_bytes(dst_raw),
            protocol=protocol,
            total_length=total_length,
            identification=identification,
            ttl=ttl,
            dscp=dscp_ecn >> 2,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            version=version,
            ihl=ihl,
        )
        return header, data[header_length:]


@dataclass
class UDPHeader:
    """8-byte UDP header.  ``length`` covers header plus payload."""

    src_port: int
    dst_port: int
    length: int = 8
    checksum: int = 0

    LENGTH = 8

    def pack(self) -> bytes:
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise HeaderError(f"{name} out of range: {port}")
        if not 8 <= self.length <= 0xFFFF:
            raise HeaderError(f"bad UDP length: {self.length}")
        return struct.pack(
            "!HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["UDPHeader", bytes]:
        """Parse from ``data``; returns (header, remaining bytes)."""
        if len(data) < cls.LENGTH:
            raise HeaderError(f"UDP header needs {cls.LENGTH} bytes, got {len(data)}")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
        if length < 8:
            raise HeaderError(f"bad UDP length field: {length}")
        return (
            cls(src_port=src_port, dst_port=dst_port, length=length,
                checksum=checksum),
            data[8:],
        )
