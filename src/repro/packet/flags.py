"""The TCP control bits and the segment kinds they name.

Kept apart from the TCP codec (:mod:`repro.packet.tcp`, which
re-exports every name here) so that the packet classifier, and with it
every detector, loads no codec or checksum code.
"""

from __future__ import annotations

import enum

__all__ = ["TCPFlags", "SegmentKind", "TCP_PROTOCOL_NUMBER"]

TCP_PROTOCOL_NUMBER = 6


class TCPFlags(enum.IntFlag):
    """The six TCP flag bits, at their wire positions."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class SegmentKind(enum.Enum):
    """Classification of a TCP segment by its control bits.

    This is the output alphabet of the paper's packet classifier
    (Section 2): the sniffers only care about SYN vs SYN/ACK, but the
    full taxonomy is useful for the TCP simulator and the stateful
    baseline defenses.
    """

    SYN = "syn"           # SYN=1, ACK=0: connection request
    SYN_ACK = "syn-ack"   # SYN=1, ACK=1: connection accept
    RST = "rst"           # RST=1: reset
    FIN = "fin"           # FIN=1: teardown (possibly with ACK)
    ACK = "ack"           # pure ACK / data segment with ACK
    OTHER = "other"       # anything else
