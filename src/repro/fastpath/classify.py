"""Vectorized packet classification over record columns.

The paper's 3-step test (Section 2) as boolean-mask passes over a
:class:`~repro.fastpath.columns.RecordBlock`'s header rows, producing
one code per record.  Semantics replicate the object pipeline
*exactly* — the decoded-``Packet`` route through
``Packet.decode_frame`` / ``Packet.decode_ip`` + ``classify_packet`` /
``explain_packet`` — not the looser raw-bytes classifier, because the
object path is the differential oracle:

* frame decode failures (short frame, non-IPv4 ethertype, short or
  non-v4 or options-bearing IP header, ``total_length`` below 20) →
  ``CLASS_SKIP``, the records ``iter_packets`` counts in
  ``skipped_records`` and never shows the sniffers;
* decoded but not first-fragment TCP → ``CLASS_NON_TCP_PROTOCOL`` or
  ``CLASS_FRAGMENT``, after the step ``explain_packet`` names;
* TCP whose payload — clipped to ``min(total_length, captured)`` like
  ``IPv4Packet.decode`` — is too short or has a bad data offset →
  ``CLASS_TRUNCATED_FLAGS`` (the quarantine path);
* surviving records get the flag-bit class with ``TCPSegment.kind``'s
  exact precedence (RST > SYN/ACK > SYN > FIN > other).

Each ``PacketClass.NON_TCP`` record is rejected at exactly one step, so
the code alone gives both classifier counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..packet.classify import ClassifierStats, PacketClass, RejectionStep
from ..pcap.format import RECORD_HEADER_LENGTH
from .columns import RecordBlock, row_field

__all__ = [
    "CLASS_SKIP", "CLASS_NON_TCP_PROTOCOL", "CLASS_FRAGMENT",
    "CLASS_TRUNCATED_FLAGS", "CLASS_SYN", "CLASS_SYN_ACK", "CLASS_RST",
    "CLASS_FIN", "CLASS_TCP_OTHER", "CODES", "CODE_OUTCOME",
    "classify_block", "accumulate_stats",
]

# Codes (uint8 column alphabet).  SKIP marks records that fail to
# decode into a Packet at all — they never reach the classifier or the
# sniffers in the object pipeline.  The three rejection codes are the
# steps of the 3-step test, in order, and are PacketClass.NON_TCP; only
# those reachable on *decoded* packets appear (``explain_packet`` can
# never return NOT_IPV4/BAD_IHL: such frames are skipped upstream).
CLASS_SKIP = 0
CLASS_NON_TCP_PROTOCOL = 1
CLASS_FRAGMENT = 2
CLASS_TRUNCATED_FLAGS = 3
CLASS_SYN = 4
CLASS_SYN_ACK = 5
CLASS_RST = 6
CLASS_FIN = 7
CLASS_TCP_OTHER = 8
#: Size of the alphabet: ``np.bincount(codes, minlength=CODES)``.
CODES = 9

#: What each code of a decoded record says: ``explain_packet``'s
#: (class, rejection step) answer for it.
CODE_OUTCOME: Dict[int, Tuple[PacketClass, Optional[RejectionStep]]] = {
    CLASS_NON_TCP_PROTOCOL: (
        PacketClass.NON_TCP, RejectionStep.NON_TCP_PROTOCOL
    ),
    CLASS_FRAGMENT: (PacketClass.NON_TCP, RejectionStep.FRAGMENT),
    CLASS_TRUNCATED_FLAGS: (PacketClass.NON_TCP, RejectionStep.TRUNCATED_FLAGS),
    CLASS_SYN: (PacketClass.SYN, None),
    CLASS_SYN_ACK: (PacketClass.SYN_ACK, None),
    CLASS_RST: (PacketClass.RST, None),
    CLASS_FIN: (PacketClass.FIN, None),
    CLASS_TCP_OTHER: (PacketClass.TCP_OTHER, None),
}

_ETHERNET_HEADER = 14
_IP_HEADER = 20
_BE16 = np.dtype(">u2")
_BE32 = np.dtype(">u4")
_U8 = np.uint8

#: The class of every TCP flag byte, with ``TCPSegment.kind``'s
#: precedence: RST > SYN/ACK > SYN > FIN > other.
_FLAG_CLASS = np.array(
    [
        CLASS_RST if flags & 0x04
        else CLASS_SYN_ACK if (flags & 0x12) == 0x12
        else CLASS_SYN if flags & 0x02
        else CLASS_FIN if flags & 0x01
        else CLASS_TCP_OTHER
        for flags in range(256)
    ],
    dtype=np.uint8,
)


def classify_block(block: RecordBlock, ethernet: bool) -> np.ndarray:
    """Classify every record in *block*; returns a uint8 code column
    aligned with the block's records.

    ``ethernet`` selects the link layer (LINKTYPE_ETHERNET strips a
    14-byte header and requires ethertype 0x0800; LINKTYPE_RAW decodes
    the captured bytes as IP directly).  The fields come from four wide
    big-endian columns of the header rows: ethertype|ver-ihl|tos (the
    version byte alone for raw IP), total_length, frag|ttl|proto and
    data-offset|flags.  A field past a record's captured length reads
    another record's bytes, so each use is masked by a length check.
    """
    rows = block.rows
    cap = block.caplens
    body = RECORD_HEADER_LENGTH
    # Step 1a equivalent (IPv4Header.decode): intact fixed header,
    # version 4, IHL exactly 5, total_length >= 20.
    if ethernet:
        ip = body + _ETHERNET_HEADER
        ip_len = cap - _ETHERNET_HEADER
        ok = (row_field(rows, body + 12, _BE32) >> 8) == 0x080045
    else:
        ip = body
        ip_len = cap
        ok = rows[:, ip] == 0x45
    ok &= ip_len >= _IP_HEADER
    total_length = row_field(rows, ip + 2, _BE16).astype(np.int64)
    ok &= total_length >= _IP_HEADER
    # Step 1b: protocol 6 and first fragment.
    frag_ttl_proto = row_field(rows, ip + 6, _BE32).astype(np.uint32)
    tcp_protocol = ok & ((frag_ttl_proto & 0xFF) == 6)
    is_tcp = tcp_protocol & ((frag_ttl_proto & 0x1FFF0000) == 0)
    # Step 2: the payload IPv4Packet.decode hands to TCPSegment.decode
    # is clipped to min(total_length, captured IP bytes); the segment
    # decodes iff it holds a full 20-byte header and a data offset of
    # at least 20 bytes that fits in that payload.  A data offset of 20
    # or more is a word of at least 0x5000.
    tcp = ip + _IP_HEADER
    offset_flags = row_field(rows, tcp + 12, _BE16).astype(np.uint16)
    headers = ((offset_flags >> 10) & 0x3C) + _IP_HEADER  # IP + TCP bytes
    tcp_ok = (
        is_tcp
        & (offset_flags >= 0x5000)
        & (headers <= total_length)
        & (headers <= ip_len)
    )
    # A rejected record's code counts the steps it passed: SKIP (0),
    # NON_TCP_PROTOCOL (1), FRAGMENT (2), TRUNCATED_FLAGS (3).  Step 3:
    # the class of the flag byte, the data-offset word's low byte.
    rejected = ok.view(_U8) + tcp_protocol.view(_U8) + is_tcp.view(_U8)
    return np.where(tcp_ok, _FLAG_CLASS.take(rows[:, tcp + 13]), rejected)


def accumulate_stats(
    stats: ClassifierStats, code_counts: np.ndarray
) -> ClassifierStats:
    """Fold per-code record counts (one ``np.bincount`` of a code
    column, ``minlength=CODES``) into *stats*, exactly as a
    :class:`~repro.packet.classify.PacketClassifier` fed the decoded
    packets one at a time would.  SKIP records (undecodable) contribute
    nothing — they never reach the classifier."""
    for code, (packet_class, step) in CODE_OUTCOME.items():
        stats.counts[packet_class] += int(code_counts[code])
        if step is not None:
            stats.rejections[step] += int(code_counts[code])
    return stats
