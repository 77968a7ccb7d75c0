"""Vectorized packet classification over record columns.

The paper's 3-step test (Section 2) as boolean-mask passes over a
:class:`~repro.fastpath.columns.RecordBlock`'s header rows, producing a
class code and a rejection-step code per record.  Semantics replicate
the object pipeline *exactly* — the decoded-``Packet`` route through
``Packet.decode_frame`` / ``Packet.decode_ip`` + ``classify_packet`` /
``explain_packet`` — not the looser raw-bytes classifier, because the
object path is the differential oracle:

* frame decode failures (short frame, non-IPv4 ethertype, short or
  non-v4 or options-bearing IP header, ``total_length`` below 20) →
  ``CLASS_SKIP``, the records ``iter_packets`` counts in
  ``skipped_records`` and never shows the sniffers;
* decoded but not first-fragment TCP → ``CLASS_NON_TCP`` with the same
  step (``non-tcp-protocol`` / ``fragment``) ``explain_packet`` names;
* TCP whose payload — clipped to ``min(total_length, captured)`` like
  ``IPv4Packet.decode`` — is too short or has a bad data offset →
  ``CLASS_NON_TCP`` with step ``truncated-flags`` (the quarantine path);
* surviving records get the flag-bit class with ``TCPSegment.kind``'s
  exact precedence (RST > SYN/ACK > SYN > FIN > other).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..packet.classify import ClassifierStats, PacketClass, RejectionStep
from ..pcap.format import RECORD_HEADER_LENGTH
from .columns import RecordBlock, row_field

__all__ = [
    "CLASS_SKIP",
    "CLASS_NON_TCP",
    "CLASS_SYN",
    "CLASS_SYN_ACK",
    "CLASS_RST",
    "CLASS_FIN",
    "CLASS_TCP_OTHER",
    "STEP_NONE",
    "STEP_NON_TCP_PROTOCOL",
    "STEP_FRAGMENT",
    "STEP_TRUNCATED_FLAGS",
    "CLASS_CODE_TO_PACKET_CLASS",
    "STEP_CODE_TO_REJECTION",
    "classify_block",
    "accumulate_stats",
]

# Class codes (uint8 column alphabet).  SKIP marks records that fail to
# decode into a Packet at all — they never reach the classifier or the
# sniffers in the object pipeline.
CLASS_SKIP = 0
CLASS_NON_TCP = 1
CLASS_SYN = 2
CLASS_SYN_ACK = 3
CLASS_RST = 4
CLASS_FIN = 5
CLASS_TCP_OTHER = 6

# Rejection-step codes.  Only the three steps reachable on *decoded*
# packets appear (``explain_packet`` can never return NOT_IPV4/BAD_IHL:
# such frames already failed to decode and were skipped upstream).
STEP_NONE = 0
STEP_NON_TCP_PROTOCOL = 1
STEP_FRAGMENT = 2
STEP_TRUNCATED_FLAGS = 3

CLASS_CODE_TO_PACKET_CLASS: Dict[int, PacketClass] = {
    CLASS_NON_TCP: PacketClass.NON_TCP,
    CLASS_SYN: PacketClass.SYN,
    CLASS_SYN_ACK: PacketClass.SYN_ACK,
    CLASS_RST: PacketClass.RST,
    CLASS_FIN: PacketClass.FIN,
    CLASS_TCP_OTHER: PacketClass.TCP_OTHER,
}

STEP_CODE_TO_REJECTION: Dict[int, RejectionStep] = {
    STEP_NON_TCP_PROTOCOL: RejectionStep.NON_TCP_PROTOCOL,
    STEP_FRAGMENT: RejectionStep.FRAGMENT,
    STEP_TRUNCATED_FLAGS: RejectionStep.TRUNCATED_FLAGS,
}

_ETHERNET_HEADER = 14
_IP_HEADER = 20
_TCP_HEADER = 20
_BE16 = np.dtype(">u2")

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


def classify_block(
    block: RecordBlock, ethernet: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Classify every record in *block*; returns (codes, steps) uint8
    columns aligned with the block's records.

    ``ethernet`` selects the link layer (LINKTYPE_ETHERNET strips a
    14-byte header and requires ethertype 0x0800; LINKTYPE_RAW decodes
    the captured bytes as IP directly).  Every field is a column of the
    block's header rows; a field past a record's captured length reads
    another record's bytes, so each use is masked by a length check.
    """
    n = len(block)
    rows = block.rows
    cap = block.caplens
    body = RECORD_HEADER_LENGTH
    if ethernet:
        ok = cap >= _ETHERNET_HEADER
        ok &= row_field(rows, body + 12, _BE16) == 0x0800
        ip = body + _ETHERNET_HEADER
        ip_len = cap - _ETHERNET_HEADER
    else:
        ok = np.ones(n, dtype=bool)
        ip = body
        ip_len = cap
    # Step 1a equivalent (IPv4Header.decode): intact fixed header,
    # version 4, IHL exactly 5, total_length >= 20.
    ok &= ip_len >= _IP_HEADER
    ok &= rows[:, ip] == 0x45
    total_length = row_field(rows, ip + 2, _BE16)
    ok &= total_length >= _IP_HEADER
    # Step 1b: protocol 6 and first fragment.
    tcp_protocol = rows[:, ip + 9] == 6
    first_fragment = (row_field(rows, ip + 6, _BE16) & 0x1FFF) == 0
    is_tcp = ok & tcp_protocol & first_fragment
    # Step 2: the payload IPv4Packet.decode hands to TCPSegment.decode
    # is clipped to min(total_length, captured IP bytes); the segment
    # decodes iff it holds a full 20-byte header and a sane data offset.
    payload_len = np.minimum(total_length, ip_len) - _IP_HEADER
    tcp = ip + _IP_HEADER
    data_offset = (rows[:, tcp + 12] >> 4) * 4
    tcp_ok = (
        is_tcp
        & (payload_len >= _TCP_HEADER)
        & (data_offset >= _TCP_HEADER)
        & (data_offset <= payload_len)
    )
    # Step 3: the flag byte's class.
    codes = np.where(
        tcp_ok, _FLAG_CLASS[rows[:, tcp + 13]], ok * np.uint8(CLASS_NON_TCP)
    )
    steps = np.zeros(n, dtype=np.uint8)
    steps[ok & ~tcp_protocol] = STEP_NON_TCP_PROTOCOL
    steps[ok & tcp_protocol & ~first_fragment] = STEP_FRAGMENT
    steps[is_tcp & ~tcp_ok] = STEP_TRUNCATED_FLAGS
    return codes, steps


def accumulate_stats(
    stats: ClassifierStats, codes: np.ndarray, steps: np.ndarray
) -> ClassifierStats:
    """Fold one batch of class/step codes into *stats*, exactly as a
    :class:`~repro.packet.classify.PacketClassifier` fed the decoded
    packets one at a time would.  SKIP lanes (undecodable records)
    contribute nothing — they never reach the classifier."""
    class_counts = np.bincount(codes, minlength=7)
    for code, packet_class in CLASS_CODE_TO_PACKET_CLASS.items():
        stats.counts[packet_class] += int(class_counts[code])
    step_counts = np.bincount(steps, minlength=4)
    for code, step in STEP_CODE_TO_REJECTION.items():
        stats.rejections[step] += int(step_counts[code])
    return stats
