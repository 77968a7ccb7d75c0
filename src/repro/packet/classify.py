"""The paper's packet-classification algorithm (Section 2).

SYN-dog is "a by-product of the router infrastructure that
differentiates TCP control packets from data packets" [31].  The
classifier runs per packet at the leaf router, in three steps that the
paper spells out:

1. check whether the IP packet contains a TCP header — i.e. its
   protocol field is 6 *and* its fragmentation offset is zero (only the
   first fragment carries the transport header);
2. compute the offset of the TCP flag bits inside the IP packet
   (IHL×4 + 13 bytes);
3. read the six flag bits and decide the segment type.

Two entry points are provided: :func:`classify_packet` for decoded
:class:`~repro.packet.packet.Packet` objects (the fast path used by the
simulator) and :func:`classify_ip_bytes`, which performs the literal
three-step byte-offset procedure on raw wire bytes without decoding the
rest of the packet — mirroring how a line-rate router classifier
actually touches only a handful of bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..obs.runtime import Instrumentation, resolve_instrumentation
from .flags import TCP_PROTOCOL_NUMBER, SegmentKind, TCPFlags

if TYPE_CHECKING:
    from .packet import Packet

__all__ = [
    "PacketClass",
    "RejectionStep",
    "QUARANTINE_STEPS",
    "classify_packet",
    "classify_ip_bytes",
    "explain_packet",
    "explain_ip_bytes",
    "ClassifierStats",
    "PacketClassifier",
]


class PacketClass(enum.Enum):
    """Classifier output alphabet."""

    SYN = "syn"              # TCP, SYN=1, ACK=0
    SYN_ACK = "syn-ack"      # TCP, SYN=1, ACK=1
    RST = "rst"              # TCP, RST=1
    FIN = "fin"              # TCP, FIN=1
    TCP_OTHER = "tcp-other"  # TCP data / pure ACK
    NON_TCP = "non-tcp"      # not TCP, or a non-first fragment


class RejectionStep(enum.Enum):
    """Which of the three classification steps rejected a packet.

    The values name the *check*, not the class: step 1a is the IPv4
    sanity check, step 1b the protocol/fragment check, step 2 the flag
    offset computation.  A packet that survives all three always gets a
    TCP class from step 3, so step 3 never appears here.
    """

    NOT_IPV4 = "not-ipv4"                # step 1a: version ≠ 4 / short header
    BAD_IHL = "bad-ihl"                  # step 1a: IHL below 20 bytes
    NON_TCP_PROTOCOL = "non-tcp-protocol"  # step 1b: protocol ≠ 6
    FRAGMENT = "fragment"                # step 1b: fragment offset ≠ 0
    TRUNCATED_FLAGS = "truncated-flags"  # step 2: flag byte beyond buffer


#: The rejection steps that indicate a *malformed* frame (the quarantine
#: path) as opposed to well-formed traffic that simply is not first-
#: fragment TCP.  A corrupted or truncated header must land here —
#: counted, skipped, never raised — because on a flooded link garbage
#: frames are the operating regime, not the exception.
QUARANTINE_STEPS = (
    RejectionStep.NOT_IPV4,
    RejectionStep.BAD_IHL,
    RejectionStep.TRUNCATED_FLAGS,
)


_KIND_TO_CLASS: Dict[SegmentKind, PacketClass] = {
    SegmentKind.SYN: PacketClass.SYN,
    SegmentKind.SYN_ACK: PacketClass.SYN_ACK,
    SegmentKind.RST: PacketClass.RST,
    SegmentKind.FIN: PacketClass.FIN,
    SegmentKind.ACK: PacketClass.TCP_OTHER,
    SegmentKind.OTHER: PacketClass.TCP_OTHER,
}


def classify_packet(packet: Packet) -> PacketClass:
    """Classify a decoded packet.

    Semantics match :func:`classify_ip_bytes` exactly; the unit tests
    assert the two agree on round-tripped packets.
    """
    segment = packet.tcp
    if segment is None:
        return PacketClass.NON_TCP
    return _KIND_TO_CLASS[segment.kind]


def explain_packet(
    packet: Packet,
) -> Tuple[PacketClass, Optional[RejectionStep]]:
    """Classify a decoded packet *and* name the step that rejected it.

    Accepted TCP packets come back with ``None`` as the step.  The
    class always equals :func:`classify_packet`'s answer; the step is
    the per-step statistic the stateful :class:`PacketClassifier`
    records and exports.
    """
    if packet.ip.protocol != TCP_PROTOCOL_NUMBER:
        return PacketClass.NON_TCP, RejectionStep.NON_TCP_PROTOCOL
    if not packet.ip.is_first_fragment:
        return PacketClass.NON_TCP, RejectionStep.FRAGMENT
    segment = packet.tcp
    if segment is None:
        # Protocol says TCP but the payload would not decode — the raw
        # bytes are too short to carry the flag byte (step 2's check).
        return PacketClass.NON_TCP, RejectionStep.TRUNCATED_FLAGS
    return _KIND_TO_CLASS[segment.kind], None


def classify_ip_bytes(raw: bytes) -> PacketClass:
    """The literal three-step classification over raw IP bytes.

    Touches only: the version/IHL byte, the protocol byte, the
    flags/fragment-offset halfword, and the single TCP flag byte — the
    minimal memory accesses a hardware classifier would make.
    """
    return explain_ip_bytes(raw)[0]


def explain_ip_bytes(
    raw: bytes,
) -> Tuple[PacketClass, Optional[RejectionStep]]:
    """The byte-offset procedure, reporting which step rejected."""
    # Step 1a: must be IPv4 with an intact fixed header.
    if len(raw) < 20 or raw[0] >> 4 != 4:
        return PacketClass.NON_TCP, RejectionStep.NOT_IPV4
    ihl_bytes = (raw[0] & 0x0F) * 4
    if ihl_bytes < 20:
        return PacketClass.NON_TCP, RejectionStep.BAD_IHL
    # Step 1b: protocol must be TCP and fragment offset must be zero.
    if raw[9] != TCP_PROTOCOL_NUMBER:
        return PacketClass.NON_TCP, RejectionStep.NON_TCP_PROTOCOL
    fragment_offset = ((raw[6] & 0x1F) << 8) | raw[7]
    if fragment_offset != 0:
        return PacketClass.NON_TCP, RejectionStep.FRAGMENT
    # Step 2: the TCP flag byte sits 13 bytes into the TCP header.
    flags_offset = ihl_bytes + 13
    if flags_offset >= len(raw):
        return PacketClass.NON_TCP, RejectionStep.TRUNCATED_FLAGS
    # Step 3: read the six flag bits and decide.
    flag_bits = raw[flags_offset] & 0x3F
    if flag_bits & TCPFlags.RST:
        return PacketClass.RST, None
    if flag_bits & TCPFlags.SYN:
        if flag_bits & TCPFlags.ACK:
            return PacketClass.SYN_ACK, None
        return PacketClass.SYN, None
    if flag_bits & TCPFlags.FIN:
        return PacketClass.FIN, None
    return PacketClass.TCP_OTHER, None


@dataclass
class ClassifierStats:
    """Running per-class packet counts plus per-step rejection counts."""

    counts: Dict[PacketClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in PacketClass}
    )
    rejections: Dict[RejectionStep, int] = field(
        default_factory=lambda: {step: 0 for step in RejectionStep}
    )

    def record(self, packet_class: PacketClass) -> None:
        self.counts[packet_class] += 1

    def record_rejection(self, step: RejectionStep) -> None:
        self.rejections[step] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def accepted(self) -> int:
        """Packets that got a TCP class (survived all three steps)."""
        return self.total - self.counts[PacketClass.NON_TCP]

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())

    @property
    def quarantined(self) -> int:
        """Malformed frames counted-and-skipped (the quarantine path):
        not-IPv4 / bad-IHL / truncated-flags rejections, as opposed to
        healthy non-TCP traffic."""
        return sum(self.rejections[step] for step in QUARANTINE_STEPS)

    def __getitem__(self, packet_class: PacketClass) -> int:
        return self.counts[packet_class]

    def rejected_by(self, step: RejectionStep) -> int:
        return self.rejections[step]

    def reset(self) -> None:
        for packet_class in self.counts:
            self.counts[packet_class] = 0
        for step in self.rejections:
            self.rejections[step] = 0


class PacketClassifier:
    """A stateful classifier front-end keeping aggregate statistics.

    This is the object a router interface owns; it is deliberately
    stateless *per flow* — aggregate integers only — which is what
    makes SYN-dog itself immune to flooding (Section 1).  Besides the
    per-class totals it tracks *which step* rejected each non-TCP
    packet, and (when instrumentation is enabled) exports both as the
    ``classifier_packets_total{class=...}`` and
    ``classifier_rejections_total{step=...}`` counter families.
    """

    def __init__(self, obs: Optional[Instrumentation] = None) -> None:
        self.stats = ClassifierStats()
        obs = resolve_instrumentation(obs)
        if obs.registry.enabled:
            by_class = obs.registry.counter(
                "classifier_packets_total",
                "Packets classified, by resulting class",
                ("class",),
            )
            self._m_class = {
                cls: by_class.labels(cls.value) for cls in PacketClass
            }
            by_step = obs.registry.counter(
                "classifier_rejections_total",
                "Packets rejected before flag decode, by step",
                ("step",),
            )
            self._m_step = {
                step: by_step.labels(step.value) for step in RejectionStep
            }
        else:
            self._m_class = None
            self._m_step = None

    def classify(self, packet: Packet) -> PacketClass:
        packet_class, step = explain_packet(packet)
        self.stats.record(packet_class)
        if step is not None:
            self.stats.record_rejection(step)
        if self._m_class is not None:
            self._m_class[packet_class].inc()
            if step is not None:
                self._m_step[step].inc()
        return packet_class

    def classify_bytes(self, raw: bytes) -> PacketClass:
        """The byte-offset path with the same statistics bookkeeping."""
        packet_class, step = explain_ip_bytes(raw)
        self.stats.record(packet_class)
        if step is not None:
            self.stats.record_rejection(step)
        if self._m_class is not None:
            self._m_class[packet_class].inc()
            if step is not None:
                self._m_step[step].inc()
        return packet_class

    @property
    def quarantined(self) -> int:
        """Malformed frames this classifier counted-and-skipped."""
        return self.stats.quarantined

    def classify_many(self, packets: Iterable[Packet]) -> ClassifierStats:
        for packet in packets:
            self.classify(packet)
        return self.stats
