"""Reference count-trace synthesis: the oracle for the fast generators.

The method bodies below are the straightforward per-draw loops that
``ParetoOnOffArrivals.counts`` and ``HandshakeModel.period_counts``
were before they were rewritten for speed, kept here unchanged.  A
generator's output is a function of its seed and of the exact order of
its ``random()`` draws, so the fast code must make the same draws in the
same order: ``tests/trace/test_reference.py`` checks equal outputs and
an equal final ``rng.getstate()`` against these classes.

Do not optimise this file; its only job is to be obviously the model.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.trace.arrival import ParetoOnOffArrivals
from repro.trace.handshake import HandshakeModel


class ReferenceParetoOnOffArrivals(ParetoOnOffArrivals):
    """:class:`ParetoOnOffArrivals` with the per-draw reference loop."""

    def _pareto_duration(self, rng: random.Random, mean: float) -> float:
        # Pareto with shape alpha and mean m has scale x_m = m(alpha-1)/alpha.
        scale = mean * (self.alpha - 1.0) / self.alpha
        return scale / (rng.random() ** (1.0 / self.alpha))

    def _on_overlap_per_period(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[float]:
        """Total ON-seconds falling inside each period, over all sources."""
        horizon = num_periods * period
        overlap = [0.0] * num_periods
        for _ in range(self.num_sources):
            time = 0.0
            # Random initial phase: start each source at a random point of
            # a cycle so the aggregate is stationary from t=0.
            on = rng.random() < self.mean_on / (self.mean_on + self.mean_off)
            # Burn a partial sojourn for the phase.
            first = self._pareto_duration(
                rng, self.mean_on if on else self.mean_off
            ) * rng.random()
            segment_end = first
            while time < horizon:
                if on:
                    _accumulate_overlap(overlap, time, min(segment_end, horizon), period)
                time = segment_end
                on = not on
                segment_end = time + self._pareto_duration(
                    rng, self.mean_on if on else self.mean_off
                )
        return overlap

    def counts(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[int]:
        overlaps = self._on_overlap_per_period(rng, num_periods, period)
        return [
            _poisson_sample(rng, self.on_rate * on_seconds)
            for on_seconds in overlaps
        ]


class ReferenceHandshakeModel(HandshakeModel):
    """:class:`HandshakeModel` with the per-draw reference loop."""

    def period_counts(
        self,
        rng: random.Random,
        connection_counts: Sequence[int],
        period: float,
    ) -> List[Tuple[int, int]]:
        duration = len(connection_counts) * period
        episodes = (
            self.congestion.sample_episodes(rng, duration)
            if self.congestion is not None
            else []
        )
        results: List[Tuple[int, int]] = []
        for index, connections in enumerate(connection_counts):
            midpoint = (index + 0.5) * period
            drop = self._drop_probability_at(midpoint, episodes)
            syns = 0
            synacks = 0
            for _ in range(connections):
                attempts = 0
                answered = False
                for _attempt in range(1 + self.max_retransmissions):
                    attempts += 1
                    if rng.random() >= drop:
                        answered = True
                        break
                syns += attempts
                if answered:
                    synacks += 1
            results.append((syns, synacks))
        return results


def _accumulate_overlap(
    bins: List[float],
    start: float,
    end: float,
    period: float,
    weight: float = 1.0,
) -> None:
    """Add ``weight × overlap-seconds`` of [start, end) into per-period bins."""
    if end <= start:
        return
    first_bin = int(start // period)
    last_bin = min(int(end // period), len(bins) - 1)
    for index in range(first_bin, last_bin + 1):
        bin_start = index * period
        bin_end = bin_start + period
        overlap = min(end, bin_end) - max(start, bin_start)
        if overlap > 0:
            bins[index] += weight * overlap


def _poisson_sample(rng: random.Random, mean: float) -> int:
    """Sample Poisson(mean) using Knuth for small means and a normal
    approximation for large ones (exact enough at mean > 500 where the
    relative error is far below the traffic's own variability)."""
    if mean <= 0:
        return 0
    if mean > 500.0:
        return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
