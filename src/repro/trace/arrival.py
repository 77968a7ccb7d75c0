"""Connection-arrival processes for synthetic background traffic.

Section 3.2 stresses that "there is no consensus on whether [TCP
connection arrivals] should be modeled as self-similar or Poisson"
[5, 7, 10, 13, 21, 25] — which is exactly why SYN-dog uses a
non-parametric test.  To honour that, the trace substrate offers *both*
families (plus a Markov-modulated compromise), and the experiment
harness can run every detection experiment under either model:

* :class:`PoissonArrivals` — homogeneous or time-of-day-modulated
  Poisson connection arrivals (the classical telephony-style model);
* :class:`ParetoOnOffArrivals` — a superposition of heavy-tailed ON/OFF
  sources, the standard construction that produces self-similar,
  long-range-dependent aggregate traffic (Paxson & Floyd [21]);
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process,
  a short-range-dependent bursty middle ground.

All processes generate *per-period connection counts* (the resolution
the detector actually consumes) and can also scatter arrival instants
inside each period for packet-level generation.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "ParetoOnOffArrivals",
    "MMPPArrivals",
    "diurnal_modulation",
    "flat_modulation",
]

RateModulation = Callable[[float], float]


def flat_modulation(_time: float) -> float:
    """No time-of-day effect: constant unit multiplier."""
    return 1.0


def diurnal_modulation(
    peak_time: float = 15.0 * 3600,
    amplitude: float = 0.3,
    period: float = 24.0 * 3600,
) -> RateModulation:
    """A smooth sinusoidal day/night rate multiplier.

    The paper's traces were taken at different times of day (14:00 LBL,
    12:39 Harvard, 14:36 Auckland); the multiplier lets long synthetic
    traces drift slowly the way real access links do ("slowly-varying on
    a large time scale", Section 3.1).
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must lie in [0,1): {amplitude}")

    def modulation(time: float) -> float:
        phase = 2.0 * math.pi * (time - peak_time) / period
        return 1.0 + amplitude * math.cos(phase)

    return modulation


class ArrivalProcess(abc.ABC):
    """Interface for connection-arrival generators.

    Implementations are deterministic given the :class:`random.Random`
    instance passed in, so every experiment is reproducible from a seed.
    """

    @abc.abstractmethod
    def counts(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[int]:
        """Sample the number of new connections in each of *num_periods*
        consecutive windows of *period* seconds."""

    def arrival_times(
        self, rng: random.Random, duration: float, period: float
    ) -> List[float]:
        """Sample individual arrival instants over [0, duration).

        Default implementation: sample per-period counts, then scatter
        that many arrivals uniformly inside each period — adequate for
        the 20 s observation windows the detector uses.
        """
        num_periods = int(math.ceil(duration / period))
        times: List[float] = []
        for index, count in enumerate(self.counts(rng, num_periods, period)):
            start = index * period
            for _ in range(count):
                instant = start + rng.random() * period
                if instant < duration:
                    times.append(instant)
        times.sort()
        return times


@dataclass
class PoissonArrivals(ArrivalProcess):
    """(Possibly modulated) Poisson connection arrivals.

    ``rate`` is mean connections/second; ``modulation`` multiplies it as
    a function of absolute time.
    """

    rate: float
    modulation: RateModulation = flat_modulation

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate cannot be negative: {self.rate}")

    def counts(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[int]:
        result: List[int] = []
        for index in range(num_periods):
            midpoint = (index + 0.5) * period
            mean = self.rate * self.modulation(midpoint) * period
            result.append(_poisson_sample(rng, mean))
        return result


@dataclass
class ParetoOnOffArrivals(ArrivalProcess):
    """Superposed Pareto ON/OFF sources — the canonical self-similar
    traffic construction.

    ``num_sources`` independent sources alternate between ON periods
    (emitting connections at ``on_rate``/s each) and silent OFF periods;
    both sojourn times are Pareto with shape ``alpha`` in (1, 2), which
    yields an aggregate with Hurst parameter H = (3 − alpha)/2 > 0.5,
    i.e. genuine long-range dependence.
    """

    num_sources: int
    on_rate: float
    mean_on: float = 10.0
    mean_off: float = 30.0
    alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.num_sources <= 0:
            raise ValueError(f"need at least one source: {self.num_sources}")
        if self.on_rate < 0:
            raise ValueError(f"on_rate cannot be negative: {self.on_rate}")
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(
                f"alpha must lie in (1,2) for self-similarity: {self.alpha}"
            )
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ValueError("mean sojourn times must be positive")

    @property
    def mean_rate(self) -> float:
        """Long-run aggregate connection rate (connections/second)."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.num_sources * self.on_rate * duty

    @property
    def hurst(self) -> float:
        """Hurst parameter of the aggregate: H = (3 − alpha) / 2."""
        return (3.0 - self.alpha) / 2.0

    def _on_overlap_per_period(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[float]:
        """Total ON-seconds falling inside each period, over all sources.

        Each source starts at a random phase of its cycle (an ON/OFF
        coin, then a partial sojourn) so the aggregate is stationary
        from t=0, then alternates Pareto sojourns: with shape alpha and
        mean m the scale is x_m = m(alpha-1)/alpha and a sojourn is
        x_m / U**(1/alpha).  The loop is written out by hand because it
        runs once per sojourn: the draws, their order and every float
        expression are those of tests/trace/_reference.py, so the output
        is bit-identical to it.
        """
        random_ = rng.random
        horizon = num_periods * period
        overlap = [0.0] * num_periods
        last_index = num_periods - 1
        alpha = self.alpha
        mean_on = self.mean_on
        mean_off = self.mean_off
        scale_on = mean_on * (alpha - 1.0) / alpha
        scale_off = mean_off * (alpha - 1.0) / alpha
        exponent = 1.0 / alpha
        duty = mean_on / (mean_on + mean_off)
        for _ in range(self.num_sources):
            on = random_() < duty
            # Burn a partial sojourn for the phase.  A source that starts
            # OFF then draws its first ON sojourn, unless there are no
            # periods at all, where the reference loop draws nothing more.
            if on:
                segment_end = scale_on / (random_() ** exponent) * random_()
                time = 0.0
            else:
                time = scale_off / (random_() ** exponent) * random_()
                if not 0.0 < horizon:
                    continue
                segment_end = time + scale_on / (random_() ** exponent)
            while time < horizon:
                # ON over [time, end): _accumulate_overlap written out,
                # one int() and no range() when it stays inside one bin.
                end = horizon if horizon < segment_end else segment_end
                if end > time:
                    first_bin = time // period
                    if end // period == first_bin and first_bin < num_periods:
                        bin_start = first_bin * period
                        bin_end = bin_start + period
                        seconds = (bin_end if bin_end < end else end) - (
                            bin_start if bin_start > time else time
                        )
                        if seconds > 0:
                            overlap[int(first_bin)] += seconds
                    else:
                        last_bin = int(end // period)
                        if last_bin > last_index:
                            last_bin = last_index
                        for index in range(int(first_bin), last_bin + 1):
                            bin_start = index * period
                            bin_end = bin_start + period
                            seconds = (bin_end if bin_end < end else end) - (
                                bin_start if bin_start > time else time
                            )
                            if seconds > 0:
                                overlap[index] += seconds
                # OFF over [segment_end, next end), then the next ON.
                time = segment_end + scale_off / (random_() ** exponent)
                if segment_end >= horizon:
                    break
                segment_end = time + scale_on / (random_() ** exponent)
        return overlap

    def counts(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[int]:
        overlaps = self._on_overlap_per_period(rng, num_periods, period)
        on_rate = self.on_rate
        return [
            _poisson_sample(rng, on_rate * on_seconds) for on_seconds in overlaps
        ]


@dataclass
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process sits in a *quiet* state (rate ``rate_low``) or a *burst*
    state (rate ``rate_high``), with exponential sojourns of means
    ``mean_quiet`` / ``mean_burst`` seconds.  Produces correlated bursts
    on the small time scale, matching Section 3.1's "bursty on a small
    time scale" characterization.
    """

    rate_low: float
    rate_high: float
    mean_quiet: float = 120.0
    mean_burst: float = 20.0

    def __post_init__(self) -> None:
        if self.rate_low < 0 or self.rate_high < 0:
            raise ValueError("rates cannot be negative")
        if self.rate_high < self.rate_low:
            raise ValueError("rate_high must be >= rate_low")
        if self.mean_quiet <= 0 or self.mean_burst <= 0:
            raise ValueError("mean sojourn times must be positive")

    @property
    def mean_rate(self) -> float:
        total = self.mean_quiet + self.mean_burst
        return (
            self.rate_low * self.mean_quiet + self.rate_high * self.mean_burst
        ) / total

    def counts(
        self, rng: random.Random, num_periods: int, period: float
    ) -> List[int]:
        horizon = num_periods * period
        # Build the state timeline, then integrate the rate per period.
        exposure = [0.0] * num_periods  # expected arrivals per period
        time = 0.0
        bursting = rng.random() < self.mean_burst / (self.mean_quiet + self.mean_burst)
        while time < horizon:
            sojourn = rng.expovariate(
                1.0 / (self.mean_burst if bursting else self.mean_quiet)
            )
            rate = self.rate_high if bursting else self.rate_low
            _accumulate_overlap(exposure, time, min(time + sojourn, horizon), period, rate)
            time += sojourn
            bursting = not bursting
        return [_poisson_sample(rng, mean) for mean in exposure]


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
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
    random_ = rng.random
    threshold = math.exp(-mean)
    count = 0
    product = random_()
    while product > threshold:
        count += 1
        product *= random_()
    return count
