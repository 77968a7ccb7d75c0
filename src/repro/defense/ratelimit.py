"""Egress SYN rate limiting — the blunt-response baseline.

When an operator suspects outbound flooding but has no detector, the
reflex response is a token-bucket police on outbound SYNs at the leaf
router.  It "works" — the flood is clipped to the bucket rate — but it
is indiscriminate: during a legitimate flash crowd the same police
clips real users' connection attempts.  SYN-dog's response chain
(detect → ingress-filter only *spoofed-source* frames → localize the
host) removes the flood with zero collateral, which the
``test_extension_response.py`` bench quantifies side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.classify import PacketClass, classify_packet
from ..packet.packet import Packet

__all__ = ["TokenBucket", "EgressSynLimiter"]


@dataclass
class TokenBucket:
    """The classic token bucket: ``rate`` tokens/second, capacity
    ``burst``.  ``consume`` returns False when the bucket is empty."""

    rate: float
    burst: float
    _tokens: float = None  # type: ignore[assignment]
    _last_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive: {self.burst}")
        if self._tokens is None:
            self._tokens = self.burst

    def consume(self, now: float, tokens: float = 1.0) -> bool:
        if now < self._last_time:
            # Non-monotonic clocks are a fact of life the fault model
            # reproduces (FaultKind.CLOCK_SKEW can move packet
            # timestamps backwards).  Refilling from a negative elapsed
            # would destroy tokens, and raising would take the whole
            # forwarding path down with it — so clamp: a skewed
            # timestamp counts as "no time has passed" and the
            # monotone high-water mark is kept.
            now = self._last_time
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_time) * self.rate
        )
        self._last_time = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


class EgressSynLimiter:
    """Polices outbound SYNs at a leaf router.

    ``check(packet)`` returns True when the packet may be forwarded.
    Non-SYN packets always pass; SYNs consume a token each.  The
    counters expose exactly what the response-comparison bench needs:
    how many SYNs were clipped, and the caller decides (from ground
    truth) how many of those were legitimate.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.bucket = TokenBucket(
            rate=rate, burst=burst if burst is not None else max(rate, 1.0)
        )
        self.syns_seen = 0
        self.syns_dropped = 0
        obs = resolve_instrumentation(obs)
        self._m_drops = (
            obs.registry.counter(
                "defense_limiter_drops_total",
                "Outbound SYNs clipped by the egress token bucket",
            )
            if obs.registry is not None
            else None
        )

    def check(self, packet: Packet) -> bool:
        if classify_packet(packet) is not PacketClass.SYN:
            return True
        self.syns_seen += 1
        if self.bucket.consume(packet.timestamp):
            return True
        self.syns_dropped += 1
        if self._m_drops is not None:
            self._m_drops.inc()
        return False

    @property
    def drop_fraction(self) -> float:
        if self.syns_seen == 0:
            return 0.0
        return self.syns_dropped / self.syns_seen
