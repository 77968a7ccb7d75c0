"""SYN flooding sources.

A :class:`FloodSource` is one compromised host ("slave") inside a stub
network, emitting spoofed SYNs toward a victim according to a
:class:`~repro.attack.patterns.RatePattern` and a
:class:`~repro.attack.spoofing.Spoofer`.  It exposes:

* ``expected_packets(t0, t1)`` — exact expected SYN volume over an
  attack-local interval (what count-level mixing consumes);
* ``generate_packets(rng, duration)`` — the actual spoofed packet
  stream, with the flooder's real MAC on every frame (what the
  packet-level mixer, the router simulation, and the localization step
  consume).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Union

from .patterns import ConstantRate, RatePattern

if TYPE_CHECKING:
    from ..packet.addresses import IPv4Address, MACAddress
    from ..packet.packet import Packet
    from .spoofing import Spoofer

__all__ = ["FloodSource"]


# The address types, the spoofers and the frame codecs load on first
# use, not with this module: a count-level flood (every soak epoch,
# ``repro attack --counts``) builds no packet.
def _default_victim() -> IPv4Address:
    from ..packet.addresses import IPv4Address

    return IPv4Address.parse("198.51.100.80")


def _default_spoofer() -> Spoofer:
    from .spoofing import RandomBogonSpoofer

    return RandomBogonSpoofer()


def _default_mac() -> MACAddress:
    from ..packet.addresses import MACAddress

    return MACAddress.parse("02:bd:00:00:00:01")


@dataclass
class FloodSource:
    """One SYN flooding slave.

    Parameters
    ----------
    pattern:
        Temporal rate profile; pass a float as shorthand for
        :class:`ConstantRate` (the paper's experimental setting).
    victim:
        Target address; the flood is aimed at one listening port.
    spoofer:
        Source-address forging strategy.
    mac:
        The slave NIC's hardware address — *not* forged, and therefore
        the key the localization step recovers.
    """

    pattern: Union[RatePattern, float]
    victim: IPv4Address = field(default_factory=_default_victim)
    victim_port: int = 80
    spoofer: Spoofer = field(default_factory=_default_spoofer)
    mac: MACAddress = field(default_factory=_default_mac)

    def __post_init__(self) -> None:
        if isinstance(self.pattern, (int, float)):
            self.pattern = ConstantRate(float(self.pattern))
        if not 0 <= self.victim_port <= 0xFFFF:
            raise ValueError(f"victim port out of range: {self.victim_port}")

    # ------------------------------------------------------------------
    # Count-level interface
    # ------------------------------------------------------------------
    def expected_packets(self, t0: float, t1: float) -> float:
        """Expected SYN count over attack-local [t0, t1)."""
        return self.pattern.integral(t0, t1)

    def mean_rate(self, duration: float) -> float:
        return self.pattern.mean_rate(duration)

    # ------------------------------------------------------------------
    # Packet-level interface
    # ------------------------------------------------------------------
    def generate_packets(
        self, rng: random.Random, duration: float
    ) -> List[Packet]:
        """Emit the spoofed SYN stream over attack-local [0, duration).

        Within each one-second slot the (possibly fractional) expected
        volume is Bernoulli-rounded and the packets are scattered
        uniformly — accurate for every pattern without needing
        per-pattern inversion sampling.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        from ..packet.packet import make_syn

        packets: List[Packet] = []
        slot = 0.0
        while slot < duration:
            slot_end = min(slot + 1.0, duration)
            expected = self.pattern.integral(slot, slot_end)
            count = int(expected)
            if rng.random() < expected - count:
                count += 1
            for _ in range(count):
                timestamp = slot + rng.random() * (slot_end - slot)
                packets.append(make_syn(
                    timestamp=timestamp,
                    src=self.spoofer.next_address(rng),
                    dst=self.victim,
                    src_port=rng.randrange(1024, 65536),
                    dst_port=self.victim_port,
                    seq=rng.getrandbits(32),
                    src_mac=self.mac,
                ))
            slot = slot_end
        packets.sort(key=lambda packet: packet.timestamp)
        return packets
