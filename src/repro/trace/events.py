"""Trace containers.

Two resolutions, matching the two ingestion styles of
:class:`~repro.core.syndog.SynDog`:

* :class:`PacketTrace` — full packet streams per direction, for
  router/pcap integration and the packet-level examples;
* :class:`CountTrace` — per-observation-period (SYN, SYN/ACK) counts,
  the resolution the detector consumes and the fast path for
  Monte-Carlo experiments (the paper's own simulations work at this
  granularity: "the total number of outgoing SYNs ... are reported to
  the SYN-dog's CUSUM algorithm", Section 3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from ..packet.packet import Packet

__all__ = ["CountTrace", "PacketTrace", "TraceMetadata"]


@dataclass(frozen=True)
class TraceMetadata:
    """Descriptive attributes mirroring the paper's Table 1."""

    name: str
    duration: float                 # seconds
    bidirectional: bool             # LBL/Harvard: True; UNC/Auckland: False
    description: str = ""
    site: str = ""
    seed: Optional[int] = None

    @property
    def traffic_type(self) -> str:
        """Table 1's "Traffic type" column."""
        return "Bi-directional" if self.bidirectional else "Uni-directional"


@dataclass(frozen=True)
class CountTrace:
    """Per-period (SYN, SYN/ACK) counts for one monitored link."""

    metadata: TraceMetadata
    period: float
    counts: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 0 < self.period < math.inf:
            raise ValueError(
                f"period must be finite and positive: {self.period}"
            )
        for syn, synack in self.counts:
            if syn < 0 or synack < 0:
                raise ValueError("counts cannot be negative")

    @property
    def num_periods(self) -> int:
        return len(self.counts)

    @property
    def syn_counts(self) -> List[int]:
        return [syn for syn, _ in self.counts]

    @property
    def synack_counts(self) -> List[int]:
        return [synack for _, synack in self.counts]

    @property
    def differences(self) -> List[int]:
        """Δ_n = SYN(n) − SYN/ACK(n) per period."""
        return [syn - synack for syn, synack in self.counts]

    @property
    def mean_synack(self) -> float:
        """Empirical K̄ over the whole trace."""
        if not self.counts:
            return 0.0
        return sum(self.synack_counts) / len(self.counts)

    @property
    def duration(self) -> float:
        return self.num_periods * self.period

    def times(self) -> List[float]:
        """Period end times (the instants at which reports are emitted)."""
        return [(index + 1) * self.period for index in range(self.num_periods)]

    def slice(self, start_period: int, end_period: int) -> "CountTrace":
        """A sub-trace covering [start_period, end_period)."""
        return replace(self, counts=self.counts[start_period:end_period])

    def rebinned(self, factor: int) -> "CountTrace":
        """Merge *factor* consecutive periods into one (used by the
        observation-period ablation and the per-minute figures)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive: {factor}")
        merged: List[Tuple[int, int]] = []
        for start in range(0, len(self.counts) - factor + 1, factor):
            window = self.counts[start : start + factor]
            merged.append(
                (
                    sum(syn for syn, _ in window),
                    sum(synack for _, synack in window),
                )
            )
        return replace(
            self, period=self.period * factor, counts=tuple(merged)
        )

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class PacketTrace:
    """Directional packet streams at a leaf router tap.

    ``outbound`` flows Intranet → Internet (where SYNs from local
    clients travel); ``inbound`` flows Internet → Intranet (where the
    answering SYN/ACKs return).  Both must be time-sorted.
    """

    metadata: TraceMetadata
    outbound: Tuple[Packet, ...]
    inbound: Tuple[Packet, ...]

    def __post_init__(self) -> None:
        for name, stream in (("outbound", self.outbound), ("inbound", self.inbound)):
            for earlier, later in zip(stream, stream[1:]):
                if later.timestamp < earlier.timestamp:
                    raise ValueError(f"{name} stream is not time-sorted")

    @property
    def num_packets(self) -> int:
        return len(self.outbound) + len(self.inbound)

    def merged(self) -> List[Packet]:
        """All packets in global timestamp order."""
        return sorted(
            list(self.outbound) + list(self.inbound),
            key=lambda packet: packet.timestamp,
        )

    def to_counts(self, period: float) -> CountTrace:
        """Aggregate to per-period SYN / SYN-ACK counts.

        Outgoing SYNs are counted on the outbound stream and incoming
        SYN/ACKs on the inbound stream, exactly as the two sniffers
        would.
        """
        num_periods = max(1, int(-(-self.metadata.duration // period)))
        syns = [0] * num_periods
        synacks = [0] * num_periods
        for packet in self.outbound:
            index = int(packet.timestamp // period)
            if 0 <= index < num_periods and packet.is_syn:
                syns[index] += 1
        for packet in self.inbound:
            index = int(packet.timestamp // period)
            if 0 <= index < num_periods and packet.is_syn_ack:
                synacks[index] += 1
        return CountTrace(
            metadata=self.metadata,
            period=period,
            counts=tuple(zip(syns, synacks)),
        )
