"""The non-parametric CUSUM change-point test (Section 3.2, Eq. 2–5).

Given observations :math:`X_n` with pre-change mean :math:`c < a`, the
shifted series :math:`\\tilde X_n = X_n - a` has negative drift under
normal operation.  The test statistic

.. math::    y_n = (y_{n-1} + \\tilde X_n)^+ , \\qquad y_0 = 0

is the recursive form (Eq. 2) of the maximum continuous increment
:math:`y_n = S_n - \\min_{0\\le k\\le n} S_k` (Eq. 3), where
:math:`S_n = \\sum_{k\\le n} \\tilde X_k`.  The decision rule (Eq. 4) is
:math:`d_N(y_n) = \\mathbb 1(y_n > N)`.

This module implements the test generically — it knows nothing about
SYN packets — because the same machinery is reused by tests that verify
the Eq. 3 identity, by the ablation benches, and potentially by any
other change-detection application.  Brodsky & Darkhovsky [4] show the
false-alarm time grows exponentially in N (Eq. 5), which the
``benchmarks/test_theory_bounds.py`` bench confirms empirically.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["NonParametricCusum", "cusum_statistic_series"]


class NonParametricCusum:
    """The sequential, non-parametric CUSUM test.

    Parameters
    ----------
    drift:
        The offset ``a`` subtracted from every observation; chosen above
        the pre-change mean ``c`` so the statistic resets to zero
        frequently and does not accumulate with time (Section 3.2).
    threshold:
        The flooding threshold ``N``; an alarm is raised while
        ``y_n > N``.

    The detector's whole state is one float, y_n — the statelessness
    property that makes SYN-dog itself immune to flooding attacks.
    """

    def __init__(self, drift: float, threshold: float) -> None:
        if not (math.isfinite(drift) and drift > 0):
            raise ValueError(f"drift a must be positive and finite, got {drift}")
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValueError(
                f"threshold N must be positive and finite, got {threshold}"
            )
        self.drift = float(drift)
        self.threshold = float(threshold)
        self._statistic = 0.0

    def update(self, x: float) -> float:
        """Incorporate one observation X_n and return the new y_n."""
        # Eq. 2: y_n = (y_{n-1} + X~_n)^+ with X~_n = X_n - a.  The
        # grouping is part of the contract: y + x - a rounds differently.
        y = self._statistic = max(0.0, self._statistic + (x - self.drift))
        return y

    @property
    def statistic(self) -> float:
        """Current y_n."""
        return self._statistic

    @property
    def alarm(self) -> bool:
        """Current decision d_N(y_n)."""
        return self._statistic > self.threshold

    def reset(self) -> None:
        """Return to the initial state (used after an operator clears an
        alarm, or between Monte-Carlo trials)."""
        self._statistic = 0.0

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The test's complete mutable state as a JSON-serializable dict.

        Together with :meth:`load_state` this is what lets a SYN-dog
        survive an agent crash without silently resetting the
        change-point test (a reset would grant the next attack a fresh
        warm-up to hide in).
        """
        return {"statistic": self._statistic}

    def load_state(self, state: dict) -> None:
        """Restore the exact state produced by :meth:`state_dict`."""
        self._statistic = float(state["statistic"])

    def __repr__(self) -> str:
        return (
            f"NonParametricCusum(drift={self.drift}, threshold={self.threshold}, "
            f"y={self._statistic:.4f})"
        )


def cusum_statistic_series(
    observations: Sequence[float], drift: float
) -> List[float]:
    """Compute the whole y_n series for a fixed observation sequence.

    A convenience for figure generation (Figures 5, 7, 8, 9 all plot
    y_n against time).
    """
    statistic = 0.0
    series: List[float] = []
    for x in observations:
        statistic = max(0.0, statistic + (x - drift))
        series.append(statistic)
    return series
