"""The wire-level packet object shared by all device models.

A :class:`Packet` owns immutable wire bytes plus simulation metadata
(ingress timestamps, flow identity for the Reorder Engine, an id for
tracing).  Convenience constructors build full Ethernet/IPv4/UDP frames,
and :meth:`parse_udp` recovers the header stack.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    IPv4Header,
    UDPHeader,
)

__all__ = ["Packet", "reset_packet_ids"]

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart the process-global packet-id stream.

    Ids only need to be unique and increasing *within* one
    :class:`~repro.sim.Environment` (the Reorder Engine compares them
    per flow), but they are drawn from a process-wide stream, so their
    absolute values depend on everything that ran earlier in the
    process.  Sweep harnesses call this before each independent point
    so observability captures name packets identically whether points
    run serially or in worker processes.
    """
    global _packet_ids
    _packet_ids = itertools.count()

#: Ethernet/IPv4/UDP header stacks keyed by the full field tuple: the
#: packed bytes and the three headers they parse back to.  Identical
#: constructor arguments always pack to identical wire bytes
#: (identification is fixed at 0, the checksum is deterministic), so the
#: hot senders that emit many same-shape frames skip re-packing, and no
#: frame built here is parsed again.
_header_cache: Dict[Tuple, Tuple[bytes, EthernetHeader, IPv4Header,
                                 UDPHeader]] = {}
#: Keys the cache holds before it starts over.
_HEADER_CACHE_KEYS = 1024


class Packet:
    """An Ethernet frame plus simulation metadata.

    Attributes:
        data: full wire bytes of the frame.
        packet_id: monotonically increasing id for tracing / reordering.
        flow_key: hashable flow identity; packets with equal flow keys must
            be delivered in arrival order (enforced by Trio's Reorder
            Engine).
        meta: free-form dict used by models to annotate packets (ingress
            time, ingress port, etc.).
    """

    __slots__ = ("data", "packet_id", "flow_key", "meta", "_udp")

    def __init__(self, data: bytes, flow_key: Any = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.data = bytes(data)
        self.packet_id = next(_packet_ids)
        self.flow_key = flow_key
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self._udp: Optional[Tuple[EthernetHeader, IPv4Header, UDPHeader,
                                  bytes]] = None

    def __len__(self) -> int:
        return len(self.data)

    @property
    def bits(self) -> int:
        """Frame size in bits (used for serialisation delay)."""
        return len(self.data) * 8

    def copy(self) -> "Packet":
        """A fresh packet (new id) with the same bytes and flow key."""
        clone = Packet(self.data, flow_key=self.flow_key, meta=dict(self.meta))
        clone._udp = self._udp
        return clone

    def split(self, head_size: int) -> Tuple[bytes, bytes]:
        """Split wire bytes into (head, tail) as Trio's PFE hardware does.

        The head is the first ``head_size`` bytes (or the whole frame when
        shorter); the tail is whatever remains.
        """
        if head_size <= 0:
            raise ValueError(f"head_size must be positive, got {head_size}")
        return self.data[:head_size], self.data[head_size:]

    # ------------------------------------------------------------------
    # Construction and parsing helpers
    # ------------------------------------------------------------------

    @classmethod
    def udp(
        cls,
        src_mac: MACAddress,
        dst_mac: MACAddress,
        src_ip: IPv4Address,
        dst_ip: IPv4Address,
        src_port: int,
        dst_port: int,
        payload: bytes,
        ttl: int = 64,
    ) -> "Packet":
        """Build a complete Ethernet/IPv4/UDP frame around ``payload``.

        The frame carries the header stack it was packed from, so
        :meth:`parse_udp` returns it without parsing.
        """
        key = (int(src_mac), int(dst_mac), int(src_ip), int(dst_ip),
               src_port, dst_port, len(payload), ttl)
        stack = _header_cache.get(key)
        if stack is None:
            # Fresh address objects, as a parse makes: the cache then
            # pins none of the callers' objects, which raised the `cache`
            # bench workload's peak RSS by ~0.8%.
            udp = UDPHeader(
                src_port=int(src_port), dst_port=int(dst_port),
                length=UDPHeader.LENGTH + len(payload),
            )
            ip = IPv4Header(
                src=IPv4Address(src_ip),
                dst=IPv4Address(dst_ip),
                total_length=IPv4Header.MIN_LENGTH + udp.length,
                ttl=ttl,
            )
            ether = EthernetHeader(
                dst=MACAddress(dst_mac), src=MACAddress(src_mac),
                ethertype=ETHERTYPE_IPV4,
            )
            stack = (ether.pack() + ip.pack() + udp.pack(), ether, ip, udp)
            if len(_header_cache) >= _HEADER_CACHE_KEYS:
                _header_cache.clear()
            _header_cache[key] = stack
        headers, ether, ip, udp = stack
        payload = bytes(payload)
        packet = cls(headers + payload,
                     flow_key=(key[2], key[3], src_port, dst_port))
        packet._udp = (ether, ip, udp, payload)
        return packet

    def parse_ethernet(self) -> Tuple[EthernetHeader, bytes]:
        """Parse the Ethernet header; returns (header, rest)."""
        return EthernetHeader.parse(self.data)

    def parse_udp(self) -> Tuple[EthernetHeader, IPv4Header, UDPHeader, bytes]:
        """Parse the full Ethernet/IPv4/UDP stack; returns headers + payload.

        Raises :class:`~repro.net.headers.HeaderError` if any layer is not
        what it claims to be.

        The wire bytes are immutable, so the parsed stack is cached: every
        model that inspects the same frame reuses one parse.
        """
        cached = self._udp
        if cached is not None:
            return cached
        ether, rest = EthernetHeader.parse(self.data)
        if ether.ethertype != ETHERTYPE_IPV4:
            raise HeaderError(
                f"not an IPv4 frame (ethertype={ether.ethertype:#06x})"
            )
        ip, rest = IPv4Header.parse(rest)
        udp, rest = UDPHeader.parse(rest)
        payload = rest[: udp.length - UDPHeader.LENGTH]
        self._udp = result = (ether, ip, udp, payload)
        return result

    def __repr__(self) -> str:
        return f"<Packet id={self.packet_id} len={len(self.data)}>"
