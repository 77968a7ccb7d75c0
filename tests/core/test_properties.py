"""Property-based tests on the detection core.

The load-bearing invariants:

* Eq. 2 ≡ Eq. 3 — the recursion equals the max-continuous-increment
  closed form on every input sequence;
* every ``SynDog`` period equals Eq. 1–4 written out inline, bit for bit;
* y_n ≥ 0 always; y_n is monotone in any single observation;
* the alarm, once the cumulative drift condition holds, is inevitable;
* EWMA output always lies within the observed range (plus floor);
* normalization makes X scale-invariant.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cusum import NonParametricCusum, cusum_statistic_series
from repro.core.normalization import EwmaEstimator, NormalizedDifference
from repro.core.parameters import SynDogParameters
from repro.core.syndog import SynDog

observations = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32),
    min_size=1,
    max_size=200,
)
drifts = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)


class TestCusumInvariants:
    @given(xs=observations, drift=drifts)
    def test_eq2_equals_eq3(self, xs, drift):
        cusum = NonParametricCusum(drift=drift, threshold=1.0)
        running = 0.0
        minimum = 0.0
        for x in xs:
            statistic = cusum.update(x)
            running += x - drift
            minimum = min(minimum, running)
            assert math.isclose(
                statistic, running - minimum, rel_tol=1e-9, abs_tol=1e-9
            )

    @given(xs=observations, drift=drifts)
    def test_statistic_never_negative(self, xs, drift):
        for value in cusum_statistic_series(xs, drift):
            assert value >= 0.0

    @given(xs=observations, drift=drifts, bump=st.floats(min_value=0.0, max_value=50.0))
    def test_monotone_in_last_observation(self, xs, drift, bump):
        base = cusum_statistic_series(xs, drift)[-1]
        bumped = cusum_statistic_series(xs[:-1] + [xs[-1] + bump], drift)[-1]
        assert bumped >= base

    @given(xs=observations, drift=drifts)
    def test_bounded_by_total_positive_increments(self, xs, drift):
        # y_n can never exceed the sum of positive shifted increments.
        bound = sum(max(0.0, x - drift) for x in xs)
        assert cusum_statistic_series(xs, drift)[-1] <= bound + 1e-9

    @given(
        drift=st.floats(min_value=0.05, max_value=1.0),
        excess=st.floats(min_value=0.01, max_value=2.0),
        threshold=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_sustained_excess_always_alarms(self, drift, excess, threshold):
        # Any constant observation above the drift eventually alarms,
        # within ceil(N/excess) + 1 steps.
        cusum = NonParametricCusum(drift=drift, threshold=threshold)
        steps_needed = int(threshold / excess) + 2
        fired = any(
            cusum.update(drift + excess) > threshold for _ in range(steps_needed)
        )
        assert fired


def paper_periods(counts, alpha, drift, threshold):
    """Eq. 1–4 inline: (K̄ after the period, X_n, y_n, d_N) per period."""
    k, y, out = None, 0.0, []
    for syn, synack in counts:
        if k is None:
            k = float(synack)  # warm start: the first period seeds K̄
        x = (syn - synack) / max(k, 1.0)  # Eq. 1 with the pre-update K̄
        k = alpha * k + (1.0 - alpha) * synack
        y = max(0.0, y + (x - drift))  # Eq. 2
        out.append((max(k, 1.0), x, y, y > threshold))  # Eq. 4
    return out


class TestPaperOracle:
    @given(
        counts=st.lists(
            st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
            min_size=1,
            max_size=60,
        ),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        drift=st.floats(min_value=0.01, max_value=5.0),
        threshold=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_observe_period_equals_equations(self, counts, alpha, drift, threshold):
        dog = SynDog(
            parameters=SynDogParameters(
                drift=drift, threshold=threshold, ewma_alpha=alpha,
                attack_increase=2.0 * drift,
            )
        )
        records = [dog.observe_period(syn, synack) for syn, synack in counts]
        got = [(r.k_bar, r.x, r.statistic, r.alarm) for r in records]
        assert got == paper_periods(counts, alpha, drift, threshold)


class TestEwmaInvariants:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=100,
        ),
        alpha=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_estimate_within_observed_range(self, values, alpha):
        estimator = EwmaEstimator(alpha=alpha, floor=1e-9)
        for value in values:
            estimator.update(value)
        assert min(values) - 1e-6 <= estimator.value <= max(values) + 1e-6 or (
            estimator.value == estimator.floor
        )

    @given(
        k=st.floats(min_value=1.0, max_value=1e5),
        relative_flood=st.floats(min_value=0.0, max_value=10.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_normalization_scale_invariance(self, k, relative_flood, scale):
        # X for (syn = K(1+r), synack = K) must not depend on K.
        small = NormalizedDifference(initial_k=k, floor=1e-12)
        large = NormalizedDifference(initial_k=k * scale, floor=1e-12)
        x_small = small.observe(k * (1 + relative_flood), k)
        x_large = large.observe(k * scale * (1 + relative_flood), k * scale)
        assert math.isclose(x_small, x_large, rel_tol=1e-9, abs_tol=1e-9)
