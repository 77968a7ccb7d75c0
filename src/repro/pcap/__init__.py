"""From-scratch classic libpcap (tcpdump) file format support.

Replaces scapy/dpkt for trace persistence: the writer emits genuine
pcap bytes readable by external tooling and the reader streams them
back with O(1) memory.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "format": (
        "LINKTYPE_ETHERNET", "LINKTYPE_RAW", "MAGIC_MICROS", "MAGIC_NANOS",
        "GlobalHeader", "PcapFormatError", "PcapTruncatedError",
        "RecordHeader",
    ),
    "reader": (
        "PcapReader", "iter_pcap", "pcap_bytes_to_packets", "read_pcap",
    ),
    "writer": ("PcapWriter", "packets_to_pcap_bytes", "write_pcap"),
})
