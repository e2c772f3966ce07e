"""Network substrate: packets, headers, links, NICs, hosts, topologies.

This package provides the byte-accurate transport layer that both the Trio
router model and the PISA/Tofino model plug into.  It models what the
paper's testbed provides physically: 100 Gbps links, ConnectX-5-style NICs
with TX/RX rings, Ethernet/IPv4/UDP encapsulation, and multicast delivery.
"""

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetHeader,
    FlowKey,
    HeaderError,
    IPv4Header,
    UDPHeader,
    destination_ip,
    flow_key,
    ipv4_checksum,
    source_key,
)
from repro.net.packet import Packet
from repro.net.link import Link, Port
from repro.net.nic import NIC
from repro.net.host import Host
from repro.net.multicast import MulticastGroupTable
from repro.net.topology import Topology

__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "EthernetHeader",
    "FlowKey",
    "HeaderError",
    "Host",
    "IPv4Address",
    "IPv4Header",
    "Link",
    "MACAddress",
    "MulticastGroupTable",
    "NIC",
    "Packet",
    "Port",
    "Topology",
    "UDPHeader",
    "destination_ip",
    "flow_key",
    "ipv4_checksum",
    "source_key",
]
