"""Unit tests for the EWMA estimator (Eq. 1) and difference normalizer."""

import pytest

from repro.core.normalization import EwmaEstimator, NormalizedDifference


class TestEwmaEstimator:
    def test_first_observation_initializes(self):
        estimator = EwmaEstimator(alpha=0.9)
        assert not estimator.initialized
        estimator.update(100.0)
        assert estimator.value == 100.0
        assert estimator.initialized

    def test_recursion_matches_eq1(self):
        # K(n) = alpha*K(n-1) + (1-alpha)*SYNACK(n)
        estimator = EwmaEstimator(alpha=0.8, initial=100.0)
        estimator.update(200.0)
        assert estimator.value == pytest.approx(0.8 * 100 + 0.2 * 200)

    def test_converges_to_constant_input(self):
        estimator = EwmaEstimator(alpha=0.9, initial=0.0)
        for _ in range(300):
            estimator.update(50.0)
        assert estimator.value == pytest.approx(50.0, rel=1e-3)

    def test_memory_constant_controls_speed(self):
        fast = EwmaEstimator(alpha=0.5, initial=0.0)
        slow = EwmaEstimator(alpha=0.99, initial=0.0)
        for _ in range(10):
            fast.update(100.0)
            slow.update(100.0)
        assert fast.value > slow.value

    def test_floor_prevents_division_blowup(self):
        estimator = EwmaEstimator(alpha=0.9, initial=0.0, floor=1.0)
        assert estimator.value == 1.0
        for _ in range(100):
            estimator.update(0.0)
        assert estimator.value == 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EwmaEstimator().update(-1.0)

    def test_alpha_bounds(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                EwmaEstimator(alpha=alpha)

    def test_reset(self):
        estimator = EwmaEstimator(initial=50.0)
        estimator.reset()
        assert not estimator.initialized


class TestNormalizedDifference:
    def test_uses_pre_update_k(self):
        # The current period's own SYN/ACK count must not contaminate
        # the K used to normalize it.
        normalizer = NormalizedDifference(alpha=0.5, initial_k=100.0)
        x = normalizer.observe(syn_count=150, synack_count=50)
        assert x == pytest.approx((150 - 50) / 100.0)
        # K is updated afterwards: 0.5*100 + 0.5*50 = 75.
        assert normalizer.k_bar == pytest.approx(75.0)

    def test_warm_start_from_first_period(self):
        normalizer = NormalizedDifference(alpha=0.9)
        x = normalizer.observe(syn_count=110, synack_count=100)
        assert x == pytest.approx(10 / 100.0)

    def test_normal_traffic_yields_small_x(self):
        normalizer = NormalizedDifference(alpha=0.95, initial_k=1000.0)
        for _ in range(50):
            x = normalizer.observe(syn_count=1015, synack_count=1000)
            assert abs(x) < 0.02

    def test_flood_yields_large_x(self):
        normalizer = NormalizedDifference(alpha=0.95, initial_k=100.0)
        x = normalizer.observe(syn_count=100 + 200, synack_count=100)
        assert x == pytest.approx(2.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            NormalizedDifference().observe(-1, 0)
        with pytest.raises(ValueError):
            NormalizedDifference().observe(0, -1)

    def test_site_size_independence(self):
        # The whole point of normalization: the same *relative* flood
        # produces the same X at a big and a small site.
        big = NormalizedDifference(initial_k=2000.0)
        small = NormalizedDifference(initial_k=100.0)
        x_big = big.observe(syn_count=2000 + 1400, synack_count=2000)
        x_small = small.observe(syn_count=100 + 70, synack_count=100)
        assert x_big == pytest.approx(x_small)
