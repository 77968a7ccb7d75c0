"""Generic sequential change-detection framework (Section 3.2 background).

The paper positions the non-parametric CUSUM within the broader family
of change-detection procedures [1, 4]: *sequential* tests decide on the
fly as data arrive; *posterior* tests look at a complete data segment
offline.  This module provides the common interface plus two additional
detectors — a parametric CUSUM (for i.i.d. Gaussian data, where CUSUM
is asymptotically optimal) and a posterior mean-shift test — used by
the test suite and the ablation benches to contrast against the
non-parametric sequential test SYN-dog adopts.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .cusum import NonParametricCusum

__all__ = [
    "SequentialDetector",
    "NonParametricCusumDetector",
    "ParametricGaussianCusum",
    "posterior_mean_shift_test",
    "PosteriorTestResult",
]


class SequentialDetector(abc.ABC):
    """Interface every on-line change detector implements."""

    @abc.abstractmethod
    def update(self, x: float) -> bool:
        """Incorporate one observation; return the current alarm decision."""

    @property
    @abc.abstractmethod
    def alarm(self) -> bool:
        """Current decision."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return to the initial state."""

    def run(self, observations: Sequence[float]) -> Optional[int]:
        """Feed a whole sequence; return the index of the first alarm or
        None."""
        for index, x in enumerate(observations):
            if self.update(x):
                return index
        return None


class NonParametricCusumDetector(SequentialDetector):
    """Adapter presenting :class:`NonParametricCusum` through the generic
    interface."""

    def __init__(self, drift: float, threshold: float) -> None:
        self._cusum = NonParametricCusum(drift=drift, threshold=threshold)

    def update(self, x: float) -> bool:
        self._cusum.update(x)
        return self._cusum.alarm

    @property
    def alarm(self) -> bool:
        return self._cusum.alarm

    @property
    def statistic(self) -> float:
        return self._cusum.statistic

    def reset(self) -> None:
        self._cusum.reset()


class ParametricGaussianCusum(SequentialDetector):
    """Classical parametric CUSUM for a Gaussian mean shift.

    Tests H0: X ~ N(mu0, sigma²) against H1: X ~ N(mu1, sigma²) with the
    log-likelihood-ratio recursion
    ``g_n = max(0, g_{n-1} + (mu1-mu0)/sigma² · (x - (mu0+mu1)/2))``.
    Asymptotically optimal when its model holds — but the model *must*
    be known, which is exactly what Internet connection-arrival traffic
    denies us (Section 3.2's argument for the non-parametric variant).
    """

    def __init__(
        self, mu0: float, mu1: float, sigma: float, threshold: float
    ) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive: {sigma}")
        if mu1 <= mu0:
            raise ValueError("mu1 must exceed mu0 for an upward-shift test")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        self.mu0 = mu0
        self.mu1 = mu1
        self.sigma = sigma
        self.threshold = threshold
        self._statistic = 0.0

    def update(self, x: float) -> bool:
        slope = (self.mu1 - self.mu0) / (self.sigma ** 2)
        increment = slope * (x - (self.mu0 + self.mu1) / 2.0)
        self._statistic = max(0.0, self._statistic + increment)
        return self.alarm

    @property
    def statistic(self) -> float:
        return self._statistic

    @property
    def alarm(self) -> bool:
        return self._statistic > self.threshold

    def reset(self) -> None:
        self._statistic = 0.0


@dataclass(frozen=True)
class PosteriorTestResult:
    """Outcome of an offline change-point analysis."""

    change_detected: bool
    change_index: Optional[int]
    test_statistic: float
    threshold: float


def posterior_mean_shift_test(
    observations: Sequence[float],
    threshold: float,
    min_segment: int = 2,
) -> PosteriorTestResult:
    """Offline (posterior) mean-shift change-point test.

    Scans every admissible split point k, computing the normalized
    between-segment mean difference

    ``T(k) = |mean(X[k:]) − mean(X[:k])| · sqrt(k·(n−k)/n) / s``

    where s is the pooled standard deviation, and reports the maximizing
    split if ``max_k T(k) > threshold``.  Quadratic-ish cost and a need
    for the full segment — the properties that rule posterior tests out
    for on-line flood sniffing (Section 3.2) but make them a useful
    forensic cross-check after the fact.
    """
    n = len(observations)
    if n < 2 * min_segment:
        return PosteriorTestResult(False, None, 0.0, threshold)
    overall_mean = sum(observations) / n
    variance = sum((x - overall_mean) ** 2 for x in observations) / max(n - 1, 1)
    pooled_std = math.sqrt(variance) if variance > 0 else 1e-12

    # Prefix sums make each split O(1).
    prefix: List[float] = [0.0]
    for x in observations:
        prefix.append(prefix[-1] + x)

    best_statistic = 0.0
    best_index: Optional[int] = None
    for k in range(min_segment, n - min_segment + 1):
        left_mean = prefix[k] / k
        right_mean = (prefix[n] - prefix[k]) / (n - k)
        weight = math.sqrt(k * (n - k) / n)
        statistic = abs(right_mean - left_mean) * weight / pooled_std
        if statistic > best_statistic:
            best_statistic = statistic
            best_index = k
    detected = best_statistic > threshold
    return PosteriorTestResult(
        change_detected=detected,
        change_index=best_index if detected else None,
        test_statistic=best_statistic,
        threshold=threshold,
    )
