"""Mixing flooding traffic into background traces (Figure 6's setup).

The paper's detection experiments superpose attack SYNs on the normal
background: "The flooding traffic is mixed with the normal traffic, the
SYN-dog at a leaf router is simulated."  The outbound sniffer sees
background SYNs *plus* flood SYNs; the inbound SYN/ACK stream is
untouched, because the spoofed requests target a victim elsewhere and
its SYN/ACKs (sent to the spoofed addresses) never return through this
router.

Works at both trace resolutions.  At count level the flood contribution
to each period is ``rate × overlap-seconds`` (prorated exactly at the
attack's partial first/last periods); pass ``jitter=True`` to Poissonize
it instead of using the deterministic expectation.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Tuple, Union

from ..attack.flooder import FloodSource
from ..attack.patterns import RatePattern
from .events import CountTrace, PacketTrace

__all__ = ["mix_flood_into_counts", "mix_flood_into_packets", "AttackWindow"]


class AttackWindow:
    """The [start, start+duration) interval during which a flood is live."""

    def __init__(self, start: float, duration: float) -> None:
        if start < 0:
            raise ValueError(f"attack start cannot be negative: {start}")
        if duration <= 0:
            raise ValueError(f"attack duration must be positive: {duration}")
        self.start = float(start)
        self.duration = float(duration)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def overlap_with(self, interval_start: float, interval_end: float) -> float:
        """Seconds of overlap with [interval_start, interval_end)."""
        return max(
            0.0, min(self.end, interval_end) - max(self.start, interval_start)
        )

    def __repr__(self) -> str:
        return f"AttackWindow(start={self.start}, duration={self.duration})"


def mix_flood_into_counts(
    background: CountTrace,
    flood: Union[FloodSource, RatePattern],
    window: AttackWindow,
    rng: Optional[random.Random] = None,
    jitter: bool = False,
) -> CountTrace:
    """Superpose *flood* onto a count-level background trace.

    Only the SYN column changes; SYN/ACK counts pass through untouched
    (see module docstring).  The flood's per-period volume is its rate
    pattern's integral, so non-constant patterns (bursty, ramp, on/off)
    integrate correctly over partial periods.  That is all count mixing
    reads, so *flood* may be the bare pattern, which builds no victim,
    MAC or spoofer.
    """
    pattern = flood if isinstance(flood, RatePattern) else flood.pattern
    local_rng = rng or random.Random(0)
    mixed: List[Tuple[int, int]] = []
    for index, (syn, synack) in enumerate(background.counts):
        period_start = index * background.period
        period_end = period_start + background.period
        overlap = window.overlap_with(period_start, period_end)
        extra = 0.0
        if overlap > 0:
            # Map the overlapping wall-clock span into attack-local time.
            attack_t0 = max(0.0, period_start - window.start)
            attack_t1 = min(window.duration, period_end - window.start)
            extra = pattern.integral(attack_t0, attack_t1)
        if jitter and extra > 0:
            extra = _poissonize(local_rng, extra)
        mixed.append((syn + int(round(extra)), synack))
    return CountTrace(
        metadata=background.metadata,
        period=background.period,
        counts=tuple(mixed),
    )


def mix_flood_into_packets(
    background: PacketTrace,
    flood: FloodSource,
    window: AttackWindow,
    rng: random.Random,
) -> PacketTrace:
    """Superpose a flood's packet stream onto a packet-level background.

    Flood packets are generated in attack-local time, shifted by the
    window start, and merged (stably, by timestamp) into the outbound
    stream.
    """
    flood_packets = [
        packet.at(packet.timestamp + window.start)
        for packet in flood.generate_packets(rng, window.duration)
        if packet.timestamp <= window.duration
    ]
    merged = sorted(
        list(background.outbound) + flood_packets,
        key=lambda packet: packet.timestamp,
    )
    return replace(background, outbound=tuple(merged))


def _poissonize(rng: random.Random, mean: float) -> int:
    """Poisson sample around *mean* (normal approximation above 500)."""
    import math

    if mean > 500.0:
        return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
