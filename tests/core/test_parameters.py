"""Tests for the parameter theory: Eq. 7, Eq. 8, the Section 4.2.3
coverage bound, and the paper's exact design constants."""

import math

import pytest

from repro.core.parameters import (
    DEFAULT_PARAMETERS,
    TUNED_UNC_PARAMETERS,
    SynDogParameters,
)


class TestPaperConstants:
    def test_defaults_match_paper(self):
        p = DEFAULT_PARAMETERS
        assert p.observation_period == 20.0
        assert p.drift == 0.35
        assert p.attack_increase == 0.70      # h = 2a
        assert p.threshold == 1.05            # N
        assert p.normal_mean == 0.0

    def test_design_derivation_reproduces_paper(self):
        # "We choose 3*t0 as the designed detection time when h = 2a and
        # therefore, N = 1.05."
        p = SynDogParameters.design(drift=0.35, target_detection_periods=3.0)
        assert p.threshold == pytest.approx(1.05)
        assert p.attack_increase == pytest.approx(0.70)

    def test_design_detection_time(self):
        # Eq. 7 with the defaults: N / (h - |c-a|) = 1.05/0.35 = 3.
        assert DEFAULT_PARAMETERS.design_detection_periods == pytest.approx(3.0)
        assert DEFAULT_PARAMETERS.design_detection_seconds == pytest.approx(60.0)

    def test_tuned_unc_parameters(self):
        # Section 4.2.3: a 0.35->0.2, N 1.05->0.6.
        assert TUNED_UNC_PARAMETERS.drift == 0.20
        assert TUNED_UNC_PARAMETERS.threshold == 0.60
        assert TUNED_UNC_PARAMETERS.attack_increase == pytest.approx(0.40)


class TestEquation8:
    def test_unc_floor(self):
        # K_bar ~= 2114/period gives the paper's f_min ~= 37 SYN/s.
        assert DEFAULT_PARAMETERS.min_detectable_rate(2114.0) == pytest.approx(
            37.0, rel=0.01
        )

    def test_auckland_floor(self):
        # K_bar = 100/period gives f_min = 1.75 SYN/s.
        assert DEFAULT_PARAMETERS.min_detectable_rate(100.0) == pytest.approx(1.75)

    def test_tuning_lowers_floor(self):
        # Section 4.2.3: lowering a from 0.35 to 0.2 drops UNC's floor
        # from 37 to ~15 SYN/s (paper quotes 15 with their K).
        default_floor = DEFAULT_PARAMETERS.min_detectable_rate(2114.0)
        tuned_floor = TUNED_UNC_PARAMETERS.min_detectable_rate(2114.0)
        assert tuned_floor == pytest.approx(default_floor * 0.2 / 0.35)
        assert 14.0 < tuned_floor < 22.0

    def test_inverse_calibration(self):
        k = DEFAULT_PARAMETERS.k_bar_for_min_rate(37.0)
        assert DEFAULT_PARAMETERS.min_detectable_rate(k) == pytest.approx(37.0)

    def test_floor_scales_linearly_with_site_size(self):
        small = DEFAULT_PARAMETERS.min_detectable_rate(100.0)
        large = DEFAULT_PARAMETERS.min_detectable_rate(1000.0)
        assert large == pytest.approx(10 * small)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.min_detectable_rate(0.0)
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.k_bar_for_min_rate(-1.0)


class TestEquation7:
    def test_detection_time_decreases_with_rate(self):
        k = 2000.0
        delays = [
            DEFAULT_PARAMETERS.detection_periods_for_rate(rate, k)
            for rate in (40, 60, 80, 120)
        ]
        assert delays == sorted(delays, reverse=True)

    def test_below_floor_is_undetectable(self):
        k = 2000.0
        floor = DEFAULT_PARAMETERS.min_detectable_rate(k)
        assert math.isinf(
            DEFAULT_PARAMETERS.detection_periods_for_rate(floor * 0.9, k)
        )

    def test_matches_closed_form(self):
        # delay = N / (f*t0/K - (a - c))
        k, rate = 1922.0, 60.0
        expected = 1.05 / (rate * 20.0 / k - 0.35)
        assert DEFAULT_PARAMETERS.detection_periods_for_rate(
            rate, k
        ) == pytest.approx(expected)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.detection_periods_for_rate(-1.0, 100.0)
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.detection_periods_for_rate(10.0, 0.0)


class TestCoverageBound:
    def test_unc_example(self):
        # "In the UNC case, the lower detection bound is 37, and A can
        # be as large as 378 stub networks" (V = 14,000).
        assert DEFAULT_PARAMETERS.max_hidden_sources(14000.0, 2114.0) == 378

    def test_auckland_example(self):
        # "In the Auckland case ... A can be as large as 8,000."
        assert DEFAULT_PARAMETERS.max_hidden_sources(14000.0, 100.0) == 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.max_hidden_sources(0.0, 100.0)

    @pytest.mark.parametrize("k_bar", [1e-320, 5e-324])
    def test_underflowing_floor_has_no_finite_count(self, k_bar):
        # f_min is subnormal (1e-320) or rounds to 0.0 (5e-324), so
        # V / f_min is infinite, not an integer.
        with pytest.raises(ValueError, match="no finite source count"):
            DEFAULT_PARAMETERS.max_hidden_sources(14000.0, k_bar)


class TestValidation:
    def test_drift_must_exceed_mean(self):
        with pytest.raises(ValueError):
            SynDogParameters(drift=0.1, normal_mean=0.2)

    def test_h_must_exceed_mean(self):
        with pytest.raises(ValueError):
            SynDogParameters(attack_increase=-0.1)

    def test_period_positive(self):
        with pytest.raises(ValueError):
            SynDogParameters(observation_period=0.0)

    def test_alpha_in_unit_interval(self):
        with pytest.raises(ValueError):
            SynDogParameters(ewma_alpha=1.0)

    def test_parameters_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PARAMETERS.drift = 0.5
