"""Byte-accurate packet layer: Ethernet / IPv4 / TCP / UDP models,
checksums, address utilities, and the paper's TCP control-packet
classifier.

This subpackage replaces scapy/dpkt (not available offline): every
header codec is implemented from scratch and produces genuine wire
bytes, so traces round-trip through the :mod:`repro.pcap` layer.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "addresses": (
        "BOGON_NETWORKS", "IPv4Address", "IPv4Network", "MACAddress",
        "is_bogon", "random_spoofed_address",
    ),
    "checksum": ("internet_checksum", "tcp_pseudo_header", "verify_checksum"),
    "classify": (
        "QUARANTINE_STEPS", "ClassifierStats", "PacketClass",
        "PacketClassifier", "RejectionStep", "classify_ip_bytes",
        "classify_packet",
    ),
    "ethernet": ("ETHERTYPE_ARP", "ETHERTYPE_IPV4", "EthernetFrame"),
    "flags": ("TCP_PROTOCOL_NUMBER", "SegmentKind", "TCPFlags"),
    "ip": ("IP_FLAG_DF", "IP_FLAG_MF", "IPv4Header", "IPv4Packet"),
    "packet": (
        "Packet", "make_ack", "make_fin", "make_rst", "make_syn",
        "make_syn_ack",
    ),
    "tcp": ("TCPSegment",),
    "udp": ("UDP_PROTOCOL_NUMBER", "UDPDatagram"),
})
