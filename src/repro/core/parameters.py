"""SYN-dog parameterization and the paper's analytic results (Section 3.2).

The design constants and every closed-form expression the paper derives:

* detection-time bound (Eq. 7): :math:`\\rho_N \\approx N /(h - |c - a|)`
  observation periods after the change;
* detection-sensitivity lower bound (Eq. 8):
  :math:`f_{min} = (a - c)\\,\\bar K / t_0` SYN packets per second;
* false-alarm scaling (Eq. 5): false-alarm probability decays
  exponentially in N, so mean time between false alarms grows
  exponentially;
* DDoS coverage (Section 4.2.3): against an aggregate flood of V SYN/s,
  attackers can hide among at most :math:`A = V / f_{min}` stub
  networks before each individual source drops below the detection
  floor.

Paper defaults: :math:`t_0 = 20` s, :math:`a = 0.35`, :math:`h = 2a`,
:math:`N = 1.05` (three-period design detection time), EWMA memory
:math:`\\alpha = 0.95` (paper gives no value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

__all__ = ["SynDogParameters", "DEFAULT_PARAMETERS", "TUNED_UNC_PARAMETERS"]


@dataclass(frozen=True)
class SynDogParameters:
    """The complete parameter set of one SYN-dog agent.

    Attributes
    ----------
    observation_period:
        :math:`t_0`, seconds per counting window.  The paper uses 20 s
        and shows the algorithm is insensitive to this choice (an
        ablation bench verifies that claim).
    drift:
        :math:`a`, the upper bound of the normalized mean during normal
        operation; 0.35 in the paper so that a universal false-alarm
        rate holds across sites.
    attack_increase:
        :math:`h`, the assumed minimum increase in the mean of X_n during
        an attack; the paper designs with ``h = 2a``.
    threshold:
        :math:`N`, the flooding threshold on the CUSUM statistic; 1.05
        in the paper (``design_detection_periods`` × (h − a) with c = 0).
    ewma_alpha:
        :math:`\\alpha` of Eq. 1.
    normal_mean:
        :math:`c = E[X_n]` under normal operation; the paper assumes
        ``c ≈ 0`` when sizing N and f_min.
    """

    observation_period: float = 20.0
    drift: float = 0.35
    attack_increase: float = 0.70
    threshold: float = 1.05
    ewma_alpha: float = 0.95
    normal_mean: float = 0.0

    def __post_init__(self) -> None:
        # NaN compares False against every bound below, so it would
        # slip through them; reject non-finite values up front.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite: {value}")
        if self.observation_period <= 0:
            raise ValueError(
                f"observation period must be positive: {self.observation_period}"
            )
        if self.drift <= self.normal_mean:
            raise ValueError(
                "drift a must exceed the normal mean c "
                f"(a={self.drift}, c={self.normal_mean})"
            )
        if self.attack_increase <= self.normal_mean:
            raise ValueError(
                "attack increase h must exceed c "
                f"(h={self.attack_increase}, c={self.normal_mean})"
            )
        if self.threshold <= 0:
            raise ValueError(f"threshold N must be positive: {self.threshold}")
        if not 0.0 < self.ewma_alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1): {self.ewma_alpha}")

    # ------------------------------------------------------------------
    # Eq. 7 — detection time
    # ------------------------------------------------------------------
    @property
    def post_change_mean(self) -> float:
        """Mean of the shifted statistic X̃_n after the change:
        h − |c − a| (the per-period growth rate of y_n during an attack)."""
        return self.attack_increase - abs(self.normal_mean - self.drift)

    @property
    def design_detection_periods(self) -> float:
        """ρ_N · N ≈ N / (h − |c − a|): the designed detection delay in
        observation periods (Eq. 7).  With the paper's defaults this is
        1.05 / 0.35 = 3 periods = 60 s."""
        growth = self.post_change_mean
        if growth <= 0:
            return math.inf
        return self.threshold / growth

    @property
    def design_detection_seconds(self) -> float:
        return self.design_detection_periods * self.observation_period

    def detection_periods_for_rate(self, flood_rate: float, k_bar: float) -> float:
        """Expected detection delay (in periods) for an actual per-source
        flooding rate of *flood_rate* SYN/s, given the site's mean
        SYN/ACK volume *k_bar* per period.

        During such an attack the mean of X_n rises by
        ``flood_rate · t0 / k_bar``; substituting that for h in Eq. 7
        gives the expected delay.  Returns ``inf`` when the rate is at or
        below the detection floor.
        """
        if k_bar <= 0:
            raise ValueError(f"k_bar must be positive: {k_bar}")
        if flood_rate < 0:
            raise ValueError(f"flood rate cannot be negative: {flood_rate}")
        increase = flood_rate * self.observation_period / k_bar
        growth = increase - (self.drift - self.normal_mean)
        if growth <= 0:
            return math.inf
        return self.threshold / growth

    # ------------------------------------------------------------------
    # Eq. 8 — detection sensitivity
    # ------------------------------------------------------------------
    def min_detectable_rate(self, k_bar: float) -> float:
        """f_min = (a − c) · K̄ / t0, the smallest per-source SYN
        flooding rate (packets/second) the agent can eventually detect
        (Eq. 8).  UNC-sized sites (K̄ ≈ 2114/period) give ≈ 37 SYN/s;
        Auckland-sized (K̄ = 100/period) give 1.75 SYN/s."""
        if k_bar <= 0:
            raise ValueError(f"k_bar must be positive: {k_bar}")
        return (self.drift - self.normal_mean) * k_bar / self.observation_period

    def k_bar_for_min_rate(self, f_min: float) -> float:
        """Inverse of Eq. 8: the per-period SYN/ACK volume at which the
        detection floor equals *f_min*.  Used to calibrate the synthetic
        site profiles against the paper's reported floors."""
        if f_min <= 0:
            raise ValueError(f"f_min must be positive: {f_min}")
        return f_min * self.observation_period / (self.drift - self.normal_mean)

    # ------------------------------------------------------------------
    # Section 4.2.3 — DDoS coverage
    # ------------------------------------------------------------------
    def max_hidden_sources(self, aggregate_rate: float, k_bar: float) -> int:
        """The largest number A of stub networks an attacker can spread
        an *aggregate_rate* SYN/s flood across while keeping every
        individual source below this agent's detection floor.

        The paper's examples: V = 14,000 SYN/s (the rate needed to
        disable a firewall-protected server [8]) yields A ≈ 378 for
        UNC-like sites and A ≈ 8,000 for Auckland-like sites.
        """
        if aggregate_rate <= 0:
            raise ValueError(f"aggregate rate must be positive: {aggregate_rate}")
        floor = self.min_detectable_rate(k_bar)
        quotient = aggregate_rate / floor if floor > 0 else math.inf
        if not math.isfinite(quotient):
            raise ValueError(
                f"no finite source count: f_min = {floor!r} SYN/s at "
                f"k_bar {k_bar!r} spreads {aggregate_rate!r} SYN/s over "
                "unboundedly many sources"
            )
        return int(quotient)

    # ------------------------------------------------------------------
    # Eq. 5 — false-alarm scaling
    # ------------------------------------------------------------------
    def false_alarm_exponent(self, threshold: float = None) -> float:
        """The exponent N in P∞{d_N = 1} ≈ c₁·exp(−c₂·N): false-alarm
        probability decays exponentially with the threshold.  c₁, c₂
        depend on the marginal distribution and mixing coefficients of
        the traffic and 'play a secondary role'; this helper exposes the
        scaling variable used by the empirical bench."""
        return self.threshold if threshold is None else threshold

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    @classmethod
    def design(
        cls,
        drift: float = 0.35,
        target_detection_periods: float = 3.0,
        observation_period: float = 20.0,
        ewma_alpha: float = 0.95,
        normal_mean: float = 0.0,
    ) -> "SynDogParameters":
        """Derive the full parameter set the way the paper does: pick a,
        set h = 2a for a long false-alarm time, assume c = 0, and size N
        from the target detection time via Eq. 7 —
        N = target · (h − a).  The defaults reproduce the paper's
        a = 0.35, h = 0.7, N = 1.05 exactly."""
        attack_increase = 2.0 * drift
        threshold = target_detection_periods * (
            attack_increase - abs(normal_mean - drift)
        )
        return cls(
            observation_period=observation_period,
            drift=drift,
            attack_increase=attack_increase,
            threshold=threshold,
            ewma_alpha=ewma_alpha,
            normal_mean=normal_mean,
        )

    def tuned(self, drift: float, threshold: float) -> "SynDogParameters":
        """Site-specific tuning (Section 4.2.3): the operator lowers a
        and N when the local traffic allows, improving sensitivity.  The
        paper's example drops UNC's floor from 37 to 15 SYN/s with
        a = 0.2, N = 0.6 (Figure 9)."""
        return replace(
            self, drift=drift, attack_increase=2.0 * drift, threshold=threshold
        )


#: The paper's universal deployment parameters.
DEFAULT_PARAMETERS = SynDogParameters()

#: The Section 4.2.3 / Figure 9 site-tuned parameters for UNC.
TUNED_UNC_PARAMETERS = DEFAULT_PARAMETERS.tuned(drift=0.20, threshold=0.60)
