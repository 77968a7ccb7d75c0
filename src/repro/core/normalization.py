"""Online normalization of the SYN−SYN/ACK difference (Section 3.2, Eq. 1).

To make the detector independent of site size, access pattern and
time-of-day, the per-period difference
:math:`\\Delta_n = \\mathrm{SYN}(n) - \\mathrm{SYNACK}(n)` is divided by
an estimate :math:`\\bar K` of the average number of SYN/ACKs per
observation period.  :math:`\\bar K` is maintained by the exponentially
weighted moving average

.. math::    \\bar K(n) = \\alpha \\bar K(n-1) + (1-\\alpha)\\,\\mathrm{SYNACK}(n)

with memory constant :math:`\\alpha \\in (0, 1)` (the paper's Eq. 1;
it gives no numeric value, we default to 0.95 ≈ a 20-period memory).

A subtlety the paper leaves implicit: during a flooding attack the
SYN/ACK count is *unchanged* (the spoofed SYNs leave the stub network
and the victim's SYN/ACKs go elsewhere), so K̄ keeps updating every
period, alarm or not.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["EwmaEstimator", "NormalizedDifference"]


class EwmaEstimator:
    """Recursive EWMA estimator of the mean SYN/ACK count K̄ (Eq. 1)."""

    def __init__(
        self,
        alpha: float = 0.95,
        initial: Optional[float] = None,
        floor: float = 1.0,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0,1), got {alpha}")
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.alpha = float(alpha)
        self.floor = float(floor)
        self._estimate: Optional[float] = (
            None if initial is None else float(initial)
        )

    def update(self, observation: float) -> float:
        """Fold one period's SYN/ACK count into K̄ and return it.

        The first observation initializes the estimate directly (a
        standard EWMA warm-start), so the detector needs no offline
        training period.
        """
        if observation < 0:
            raise ValueError(f"negative count: {observation}")
        self.step(observation, fold=self._estimate is not None)
        return self.value

    def step(self, observation: float, fold: bool = True) -> float:
        """Return K̄ as it stands before ``observation`` (clamped below
        by ``floor``, as :attr:`value`), then fold ``observation`` into
        it by Eq. 1 when ``fold``.

        With no estimate yet, ``observation`` first becomes the estimate
        (the warm start), so the first period is normalized by its own
        count.  This is the detector's one call per period.
        """
        estimate = self._estimate
        if estimate is None:
            estimate = self._estimate = float(observation)
        if fold:
            alpha = self.alpha
            self._estimate = alpha * estimate + (1.0 - alpha) * observation
        floor = self.floor
        return floor if floor > estimate else estimate

    @property
    def value(self) -> float:
        """Current K̄, clamped below by ``floor``.

        The floor keeps the normalized statistic finite on links that go
        quiet (K̄ → 0 would otherwise blow up X_n = Δ_n/K̄ and fire a
        false alarm on the first stray SYN).
        """
        if self._estimate is None:
            return self.floor
        return max(self._estimate, self.floor)

    @property
    def initialized(self) -> bool:
        return self._estimate is not None

    @property
    def raw_estimate(self) -> Optional[float]:
        """The unclamped estimate (None before the first observation) —
        what a checkpoint must carry so restore is exact even below the
        floor."""
        return self._estimate

    def load(self, estimate: Optional[float]) -> None:
        """Restore the raw estimate captured by :attr:`raw_estimate`."""
        self._estimate = None if estimate is None else float(estimate)

    def reset(self) -> None:
        self._estimate = None


class NormalizedDifference:
    """Produces the normalized observation X_n = Δ_n / K̄.

    One instance sits between the sniffers and the CUSUM test inside the
    SYN-dog agent; K̄ folds every period (Eq. 1).
    """

    def __init__(
        self,
        alpha: float = 0.95,
        initial_k: Optional[float] = None,
        floor: float = 1.0,
    ) -> None:
        self.estimator = EwmaEstimator(alpha=alpha, initial=initial_k, floor=floor)

    def observe(self, syn_count: float, synack_count: float) -> float:
        """Fold one observation period and return X_n.

        The normalization uses the *pre-update* K̄ for the current
        period — the difference is compared against the historical
        average, not against a value already contaminated by the current
        (possibly attacked) period.
        """
        if syn_count < 0 or synack_count < 0:
            raise ValueError("packet counts cannot be negative")
        k_bar = self.estimator.step(synack_count)
        return (syn_count - synack_count) / k_bar

    @property
    def k_bar(self) -> float:
        return self.estimator.value
