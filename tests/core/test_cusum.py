"""Unit tests for the non-parametric CUSUM recursion (Eq. 2–4)."""

import math

import pytest

from repro.core.cusum import NonParametricCusum, cusum_statistic_series


class TestRecursion:
    def test_stays_zero_below_drift(self):
        cusum = NonParametricCusum(drift=0.35, threshold=1.05)
        for _ in range(100):
            statistic = cusum.update(0.1)
        assert statistic == 0.0
        assert not cusum.alarm

    def test_accumulates_above_drift(self):
        cusum = NonParametricCusum(drift=0.35, threshold=1.05)
        cusum.update(0.85)  # +0.5
        cusum.update(0.85)  # +0.5
        assert cusum.statistic == pytest.approx(1.0)
        assert not cusum.alarm
        cusum.update(0.85)
        assert cusum.statistic == pytest.approx(1.5)
        assert cusum.alarm

    def test_resets_toward_zero_not_below(self):
        cusum = NonParametricCusum(drift=0.35, threshold=1.05)
        cusum.update(1.35)   # y = 1.0
        cusum.update(-5.0)   # would go far negative; clamps to 0
        assert cusum.statistic == 0.0

    def test_design_detection_time_three_periods(self):
        # Paper's sizing: with h = 2a = 0.7 and c = 0, an attack raising
        # the mean to h crosses N = 1.05 in exactly 3 periods.
        cusum = NonParametricCusum(drift=0.35, threshold=1.05)
        crossings = [cusum.update(0.7) > cusum.threshold for _ in range(4)]
        assert crossings == [False, False, False, True]

    def test_alarm_is_strict_inequality(self):
        cusum = NonParametricCusum(drift=0.5, threshold=1.0)
        assert cusum.update(1.5) == 1.0
        assert not cusum.alarm  # y == N is not an alarm

    def test_reset(self):
        cusum = NonParametricCusum(drift=0.1, threshold=0.5)
        cusum.update(5.0)
        assert cusum.alarm
        cusum.reset()
        assert cusum.statistic == 0.0
        assert not cusum.alarm

    def test_update_returns_statistic(self):
        cusum = NonParametricCusum(drift=1.0, threshold=10.0)
        assert [cusum.update(x) for x in [2.0, 3.0, 4.0]] == [1.0, 3.0, 6.0]

    def test_state_is_the_statistic(self):
        cusum = NonParametricCusum(drift=0.35, threshold=1.05)
        cusum.update(0.85)
        assert cusum.state_dict() == {"statistic": cusum.statistic}
        restored = NonParametricCusum(drift=0.35, threshold=1.05)
        restored.load_state(cusum.state_dict())
        assert restored.update(0.9) == cusum.update(0.9)


class TestEquation3Identity:
    def test_recursive_equals_closed_form(self):
        # Eq. 3: y_n = S_n - min_{k<=n} S_k with S in shifted units.
        observations = [0.1, 0.9, -0.3, 0.5, 0.5, -2.0, 0.7, 0.7, 0.7]
        drift = 0.35
        cusum = NonParametricCusum(drift=drift, threshold=1.05)
        running = minimum = 0.0
        for x in observations:
            running += x - drift
            minimum = min(minimum, running)
            assert cusum.update(x) == pytest.approx(running - minimum)


class TestValidation:
    def test_positive_drift_required(self):
        with pytest.raises(ValueError):
            NonParametricCusum(drift=0.0, threshold=1.0)

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            NonParametricCusum(drift=0.35, threshold=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finite_parameters_required(self, value):
        with pytest.raises(ValueError, match="finite"):
            NonParametricCusum(drift=value, threshold=1.0)
        with pytest.raises(ValueError, match="finite"):
            NonParametricCusum(drift=0.35, threshold=value)


class TestSeriesHelper:
    def test_matches_object_implementation(self):
        observations = [0.5, -0.2, 0.9, 0.1, 2.0, -1.0]
        series = cusum_statistic_series(observations, drift=0.35)
        cusum = NonParametricCusum(drift=0.35, threshold=99.0)
        expected = [cusum.update(x) for x in observations]
        assert series == pytest.approx(expected)

    def test_empty_series(self):
        assert cusum_statistic_series([], drift=0.35) == []
