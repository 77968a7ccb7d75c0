"""TCP segment model and byte-accurate codec.

The six classic TCP flag bits (URG/ACK/PSH/RST/SYN/FIN) drive the
paper's packet classification: SYN-dog's outbound sniffer counts
segments with SYN=1, ACK=0 (connection requests) and the inbound sniffer
counts SYN=1, ACK=1 (SYN/ACK responses).  The codec produces real wire
bytes including a correct pseudo-header checksum so traces can round-trip
through pcap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .checksum import internet_checksum, tcp_pseudo_header
from .flags import TCP_PROTOCOL_NUMBER, SegmentKind, TCPFlags

__all__ = ["TCPFlags", "TCPSegment", "SegmentKind", "TCP_PROTOCOL_NUMBER"]

_HEADER = struct.Struct("!HHIIBBHHH")


@dataclass(frozen=True)
class TCPSegment:
    """An immutable TCP segment (header + payload)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags(0)
    window: int = 65535
    urgent: int = 0
    options: bytes = b""
    payload: bytes = b""

    def __post_init__(self) -> None:
        for name, value, limit in (
            ("src_port", self.src_port, 0xFFFF),
            ("dst_port", self.dst_port, 0xFFFF),
            ("window", self.window, 0xFFFF),
            ("urgent", self.urgent, 0xFFFF),
        ):
            if not 0 <= value <= limit:
                raise ValueError(f"{name} out of range: {value}")
        for name, value in (("seq", self.seq), ("ack", self.ack)):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"{name} out of range: {value}")
        if len(self.options) % 4:
            raise ValueError("TCP options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise ValueError("TCP options exceed 40 bytes")

    # ------------------------------------------------------------------
    # Convenience constructors for the handshake vocabulary
    # ------------------------------------------------------------------
    @classmethod
    def syn(cls, src_port: int, dst_port: int, seq: int = 0) -> "TCPSegment":
        """A connection request: SYN=1, ACK=0."""
        return cls(src_port, dst_port, seq=seq, flags=TCPFlags.SYN)

    @classmethod
    def syn_ack(
        cls, src_port: int, dst_port: int, seq: int = 0, ack: int = 1
    ) -> "TCPSegment":
        """A connection accept: SYN=1, ACK=1."""
        return cls(
            src_port, dst_port, seq=seq, ack=ack,
            flags=TCPFlags.SYN | TCPFlags.ACK,
        )

    @classmethod
    def pure_ack(
        cls, src_port: int, dst_port: int, seq: int = 1, ack: int = 1
    ) -> "TCPSegment":
        return cls(src_port, dst_port, seq=seq, ack=ack, flags=TCPFlags.ACK)

    @classmethod
    def rst(cls, src_port: int, dst_port: int, seq: int = 0) -> "TCPSegment":
        return cls(src_port, dst_port, seq=seq, flags=TCPFlags.RST)

    @classmethod
    def fin(
        cls, src_port: int, dst_port: int, seq: int = 1, ack: int = 1
    ) -> "TCPSegment":
        return cls(
            src_port, dst_port, seq=seq, ack=ack,
            flags=TCPFlags.FIN | TCPFlags.ACK,
        )

    # ------------------------------------------------------------------
    # Flag predicates
    # ------------------------------------------------------------------
    @property
    def is_syn(self) -> bool:
        """SYN request: SYN set, ACK clear (what the outbound sniffer counts)."""
        return bool(self.flags & TCPFlags.SYN) and not self.flags & TCPFlags.ACK

    @property
    def is_syn_ack(self) -> bool:
        """SYN/ACK: SYN and ACK both set (what the inbound sniffer counts)."""
        return bool(self.flags & TCPFlags.SYN) and bool(self.flags & TCPFlags.ACK)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TCPFlags.RST)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & TCPFlags.FIN)

    @property
    def kind(self) -> SegmentKind:
        if self.is_rst:
            return SegmentKind.RST
        if self.is_syn_ack:
            return SegmentKind.SYN_ACK
        if self.is_syn:
            return SegmentKind.SYN
        if self.is_fin:
            return SegmentKind.FIN
        if self.flags & TCPFlags.ACK:
            return SegmentKind.ACK
        return SegmentKind.OTHER

    @property
    def data_offset_words(self) -> int:
        """Header length in 32-bit words (5 + options)."""
        return 5 + len(self.options) // 4

    @property
    def header_length(self) -> int:
        return self.data_offset_words * 4

    def __len__(self) -> int:
        return self.header_length + len(self.payload)

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def encode(
        self,
        src_ip: Optional[bytes] = None,
        dst_ip: Optional[bytes] = None,
    ) -> bytes:
        """Serialize to wire bytes.

        When *src_ip*/*dst_ip* (4-byte each) are given, the checksum is
        computed over the RFC 793 pseudo-header; otherwise it is left 0,
        which is fine for purely in-memory simulation.
        """
        offset_reserved = self.data_offset_words << 4
        header = _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_reserved,
            int(self.flags) & 0x3F,
            self.window,
            0,  # checksum placeholder
            self.urgent,
        )
        segment = header + self.options + self.payload
        if src_ip is not None and dst_ip is not None:
            pseudo = tcp_pseudo_header(
                src_ip, dst_ip, TCP_PROTOCOL_NUMBER, len(segment)
            )
            checksum = internet_checksum(pseudo + segment)
            segment = (
                segment[:16] + checksum.to_bytes(2, "big") + segment[18:]
            )
        return segment

    @classmethod
    def decode(cls, raw: bytes) -> "TCPSegment":
        """Parse wire bytes into a TCPSegment (checksum not verified here;
        use :func:`verify` when the enclosing IP addresses are known)."""
        if len(raw) < _HEADER.size:
            raise ValueError(f"TCP header truncated: {len(raw)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flag_bits,
            window,
            _checksum,
            urgent,
        ) = _HEADER.unpack_from(raw)
        data_offset = (offset_reserved >> 4) * 4
        if data_offset < 20 or data_offset > len(raw):
            raise ValueError(f"bad TCP data offset: {data_offset}")
        options = raw[20:data_offset]
        payload = raw[data_offset:]
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=TCPFlags(flag_bits & 0x3F),
            window=window,
            urgent=urgent,
            options=options,
            payload=payload,
        )

    @classmethod
    def verify(cls, raw: bytes, src_ip: bytes, dst_ip: bytes) -> bool:
        """True when *raw*'s embedded checksum is valid for the given
        IPv4 endpoints."""
        pseudo = tcp_pseudo_header(src_ip, dst_ip, TCP_PROTOCOL_NUMBER, len(raw))
        return internet_checksum(pseudo + raw) == 0

    def with_flags(self, flags: TCPFlags) -> "TCPSegment":
        return replace(self, flags=flags)
