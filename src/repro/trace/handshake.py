"""The SYN ↔ SYN/ACK pairing model (Sections 1 and 3.1).

Under normal conditions every outgoing SYN is answered by an incoming
SYN/ACK within one RTT; the paper names exactly two sources of
discrepancy:

* overloaded servers dropping SYNs without responding, and
* congestion on the forwarding path dropping SYNs before they arrive.

This module turns connection-arrival instants into the SYN and SYN/ACK
*events* a leaf router would observe, modelling both discrepancy
sources plus client SYN retransmission (lost SYNs are retried after the
classical 3 s initial RTO, which generates extra SYNs with no extra
SYN/ACKs — the same signed direction as the flood signal, so it matters
for false-alarm fidelity) and transient *congestion episodes* during
which the drop probability is elevated.  The episodes are what produce
the isolated y_n spikes the paper shows in Figure 5 (max ≈ 0.05 at
Harvard, ≈ 0.26 at Auckland).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "HandshakeModel",
    "HandshakeEvent",
    "CongestionEpisodeModel",
    "RTT_DEFAULT_MEAN",
]

RTT_DEFAULT_MEAN = 0.120  # seconds; typical wide-area RTT circa 2000

#: Classical BSD initial retransmission timeout for an unanswered SYN.
SYN_RTO = 3.0


@dataclass(frozen=True)
class HandshakeEvent:
    """One handshake attempt as seen at the leaf router.

    ``syn_times`` holds the instants of the initial SYN and any
    retransmissions that crossed the router; ``synack_time`` is the
    instant the SYN/ACK came back in, or None when the request was never
    answered (dropped en route or at an overloaded server).
    """

    syn_times: Tuple[float, ...]
    synack_time: Optional[float]

    @property
    def answered(self) -> bool:
        return self.synack_time is not None

    @property
    def num_syns(self) -> int:
        return len(self.syn_times)


@dataclass
class CongestionEpisodeModel:
    """Transient congestion on the forwarding path.

    Episodes begin as a Poisson process with mean inter-arrival
    ``mean_interval`` seconds, last Exp(``mean_duration``), and raise
    the SYN drop probability to ``drop_probability`` for their duration.
    """

    mean_interval: float = 600.0
    mean_duration: float = 15.0
    drop_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_interval <= 0 or self.mean_duration <= 0:
            raise ValueError("episode interval and duration must be positive")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop probability must lie in [0,1]: {self.drop_probability}"
            )

    def sample_episodes(
        self, rng: random.Random, duration: float
    ) -> List[Tuple[float, float]]:
        """Sample [(start, end), ...] episode intervals over [0, duration)."""
        episodes: List[Tuple[float, float]] = []
        time = rng.expovariate(1.0 / self.mean_interval)
        while time < duration:
            length = rng.expovariate(1.0 / self.mean_duration)
            episodes.append((time, min(time + length, duration)))
            time += length + rng.expovariate(1.0 / self.mean_interval)
        return episodes


@dataclass
class HandshakeModel:
    """Probabilistic SYN → SYN/ACK transformation.

    Parameters
    ----------
    base_drop_probability:
        Baseline probability that a given SYN transmission goes
        unanswered (path loss + server overload combined) outside
        congestion episodes.
    rtt_mean, rtt_sigma:
        SYN/ACK latency is lognormal with this underlying mean/sigma —
        always well under the 20 s observation period, so pairing rarely
        straddles a period boundary (the residual straddling is the
        honest edge effect real routers see too).
    max_retransmissions:
        How many times the client retries an unanswered SYN (BSD-style
        two retries by default, at 3 s and 9 s).
    congestion:
        Optional transient-congestion model layered on top.
    """

    base_drop_probability: float = 0.015
    rtt_mean: float = RTT_DEFAULT_MEAN
    rtt_sigma: float = 0.5
    max_retransmissions: int = 2
    congestion: Optional[CongestionEpisodeModel] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_drop_probability <= 1.0:
            raise ValueError(
                f"drop probability must lie in [0,1]: {self.base_drop_probability}"
            )
        if self.rtt_mean <= 0:
            raise ValueError(f"RTT mean must be positive: {self.rtt_mean}")
        if self.max_retransmissions < 0:
            raise ValueError(
                f"retransmission count cannot be negative: {self.max_retransmissions}"
            )

    # ------------------------------------------------------------------
    # Event-level API (packet-accurate generation)
    # ------------------------------------------------------------------
    def sample_rtt(self, rng: random.Random) -> float:
        mu = math.log(self.rtt_mean) - self.rtt_sigma ** 2 / 2.0
        return rng.lognormvariate(mu, self.rtt_sigma)

    def _drop_probability_at(
        self, time: float, episodes: Sequence[Tuple[float, float]]
    ) -> float:
        for start, end in episodes:
            if start <= time < end:
                assert self.congestion is not None
                return self.congestion.drop_probability
        return self.base_drop_probability

    def simulate_handshakes(
        self,
        rng: random.Random,
        arrival_times: Sequence[float],
        duration: float,
    ) -> List[HandshakeEvent]:
        """Run every connection attempt through the loss/retry model."""
        episodes = (
            self.congestion.sample_episodes(rng, duration)
            if self.congestion is not None
            else []
        )
        events: List[HandshakeEvent] = []
        for arrival in arrival_times:
            syn_times: List[float] = []
            synack_time: Optional[float] = None
            send_time = arrival
            for attempt in range(1 + self.max_retransmissions):
                if send_time >= duration:
                    break
                syn_times.append(send_time)
                drop_probability = self._drop_probability_at(send_time, episodes)
                if rng.random() >= drop_probability:
                    response = send_time + self.sample_rtt(rng)
                    if response < duration:
                        synack_time = response
                    break
                # Unanswered: retry after exponentially backed-off RTO.
                send_time += SYN_RTO * (2 ** attempt)
            if syn_times:
                events.append(
                    HandshakeEvent(
                        syn_times=tuple(syn_times), synack_time=synack_time
                    )
                )
        return events

    # ------------------------------------------------------------------
    # Count-level API (fast Monte-Carlo path)
    # ------------------------------------------------------------------
    def period_counts(
        self,
        rng: random.Random,
        connection_counts: Sequence[int],
        period: float,
    ) -> List[Tuple[int, int]]:
        """Directly sample (SYN, SYN/ACK) counts per period from
        per-period connection counts, without materializing packets.

        Approximations relative to the event-level path: retransmissions
        and SYN/ACKs are booked in the period of the original arrival
        (RTT and RTO are small against t0 = 20 s).  Statistically this
        preserves exactly what the detector consumes — the unit tests
        cross-validate the two paths' per-period means.
        """
        duration = len(connection_counts) * period
        episodes = (
            self.congestion.sample_episodes(rng, duration)
            if self.congestion is not None
            else []
        )
        # Connections take their draws one after another: each draw is
        # one SYN of the connection in progress, answered when u >= drop,
        # and the connection ends when answered or after ``attempts_max``
        # unanswered SYNs.  Every unfinished connection takes at least one
        # more draw, so ``remaining`` draws at a time never reads past the
        # reference loop's sequence (tests/trace/_reference.py); only the
        # rare unanswered draws are walked, to book retries.
        random_ = rng.random
        attempts_max = 1 + self.max_retransmissions
        results: List[Tuple[int, int]] = []
        for index, connections in enumerate(connection_counts):
            midpoint = (index + 0.5) * period
            drop = self._drop_probability_at(midpoint, episodes)
            syns = 0
            synacks = 0
            remaining = connections
            streak = 0  # unanswered SYNs of the connection in progress
            while remaining > 0:
                failed = [i for i in range(remaining) if random_() < drop]
                syns += remaining
                answered = remaining - len(failed)
                given_up = 0
                previous = -1
                for i in failed:
                    if i != previous + 1:
                        streak = 0
                    streak += 1
                    if streak == attempts_max:
                        given_up += 1
                        streak = 0
                    previous = i
                if previous != remaining - 1:
                    streak = 0
                synacks += answered
                remaining -= answered + given_up
            results.append((syns, synacks))
        return results

    def expected_syns_per_connection(self, drop_probability: float = None) -> float:
        """Mean SYN transmissions per connection attempt under the given
        (or baseline) drop probability."""
        p = (
            self.base_drop_probability
            if drop_probability is None
            else drop_probability
        )
        # 1 + p + p² + ... up to max_retransmissions extra attempts.
        return sum(p ** attempt for attempt in range(1 + self.max_retransmissions))

    def expected_answer_probability(self, drop_probability: float = None) -> float:
        """Probability a connection is eventually answered."""
        p = (
            self.base_drop_probability
            if drop_probability is None
            else drop_probability
        )
        return 1.0 - p ** (1 + self.max_retransmissions)
