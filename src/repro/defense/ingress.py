"""Network ingress filtering (Ferguson & Senie, RFC 2267 [11]).

The source-side filter SYN-dog triggers after an alarm (Section 4.2.3):
a leaf router drops outbound packets whose source address does not
belong to the stub network it serves, defeating source-address
spoofing at its origin.  The filter also *logs* the offending frames'
MAC addresses, which feeds the localization step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Network, MACAddress
from ..packet.packet import Packet

__all__ = ["IngressFilter", "SpoofObservation"]


@dataclass(frozen=True)
class SpoofObservation:
    """One outbound packet caught with a source outside the stub prefix."""

    timestamp: float
    spoofed_source: str
    mac: MACAddress
    destination: str


class IngressFilter:
    """RFC 2267 ingress filtering for one leaf router.

    ``check(packet)`` returns True when the packet may be forwarded.
    The filter can run in *monitor* mode (log but forward) — the state
    SYN-dog keeps it in before an alarm — or *enforce* mode (drop),
    which the agent switches on when a flooding source is detected.
    """

    def __init__(
        self,
        stub_network: IPv4Network,
        enforce: bool = False,
        max_log: int = 100_000,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if max_log <= 0:
            raise ValueError(f"max_log must be positive: {max_log}")
        self.stub_network = stub_network
        self.enforce = enforce
        self.max_log = max_log
        self.observations: List[SpoofObservation] = []
        self.packets_checked = 0
        self.packets_dropped = 0
        obs = resolve_instrumentation(obs)
        self._m_blocked = (
            obs.registry.counter(
                "defense_ingress_blocked_total",
                "Spoofed-source packets dropped by ingress filtering "
                "(enforce mode only)",
            )
            if obs.registry is not None
            else None
        )

    def check(self, packet: Packet) -> bool:
        """Validate one outbound packet; True = forward, False = drop."""
        self.packets_checked += 1
        if packet.src_ip in self.stub_network:
            return True
        if len(self.observations) < self.max_log:
            self.observations.append(
                SpoofObservation(
                    timestamp=packet.timestamp,
                    spoofed_source=str(packet.src_ip),
                    mac=packet.src_mac,
                    destination=str(packet.dst_ip),
                )
            )
        if self.enforce:
            self.packets_dropped += 1
            if self._m_blocked is not None:
                self._m_blocked.inc()
            return False
        return True

    def activate(self) -> None:
        """Switch to enforce mode (what a SYN-dog alarm triggers)."""
        self.enforce = True

    def macs_by_spoof_volume(self) -> List[Tuple[MACAddress, int]]:
        """MAC addresses of spoofing hosts, most prolific first — the
        raw material for source localization."""
        counts: Dict[MACAddress, int] = {}
        for observation in self.observations:
            counts[observation.mac] = counts.get(observation.mac, 0) + 1
        return sorted(counts.items(), key=lambda item: (-item[1], item[0].value))
