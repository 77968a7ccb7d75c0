"""Metrics primitives: counters, gauges, histograms, labels, registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("packets_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_negative_increment(self):
        counter = Counter("packets_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_children_are_cached(self):
        counter = Counter("packets_total", labelnames=("direction",))
        out = counter.labels("out")
        out.inc(3)
        assert counter.labels("out") is out
        assert counter.labels("out").value == 3.0
        assert counter.labels("in").value == 0.0

    def test_labels_by_keyword(self):
        counter = Counter("x_total", labelnames=("a", "b"))
        counter.labels(a="1", b="2").inc()
        assert counter.labels("1", "2").value == 1.0

    def test_wrong_label_arity_rejected(self):
        counter = Counter("x_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            counter.labels("only-one")

    def test_unlabeled_family_rejects_labels_call(self):
        with pytest.raises(ValueError):
            Counter("x_total").labels("v")

    def test_labeled_family_rejects_direct_inc(self):
        with pytest.raises(ValueError):
            Counter("x_total", labelnames=("a",)).inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("y_n")
        gauge.set(1.5)
        gauge.inc(0.5)
        gauge.dec(2.0)
        assert gauge.value == 0.0

    def test_labeled_gauge_samples_carry_labels(self):
        gauge = Gauge("k_bar", labelnames=("site",))
        gauge.labels("unc").set(692.0)
        samples = list(gauge.samples())
        assert len(samples) == 1
        assert samples[0].labels == {"site": "unc"}
        assert samples[0].value == 692.0


class TestHistogram:
    def test_observe_lands_in_first_fitting_bucket(self):
        histogram = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)  # above every bound: +Inf only
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(100.55)
        samples = {
            (s.suffix, s.labels.get("le")): s.value
            for s in histogram.samples()
        }
        # Cumulative bucket convention.
        assert samples[("_bucket", "0.1")] == 1.0
        assert samples[("_bucket", "1.0")] == 2.0
        assert samples[("_bucket", "10.0")] == 2.0
        assert samples[("_bucket", "+Inf")] == 3.0
        assert samples[("_count", None)] == 3.0

    def test_buckets_are_sorted_on_construction(self):
        histogram = Histogram("h", buckets=(5.0, 1.0, 2.0))
        assert histogram.buckets == (1.0, 2.0, 5.0)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("syn_total", "help")
        second = registry.counter("syn_total")
        assert first is second
        assert len(registry) == 1

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labelnames_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labelnames=("b",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "1abc", "has space", "has-dash"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_collect_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.gauge("b")
        registry.histogram("c_seconds")
        assert [f.name for f in registry.collect()] == [
            "a_total", "b", "c_seconds"
        ]
        assert "b" in registry
        assert registry.get("b").kind == "gauge"

    def test_shared_registry_shares_series(self):
        # Two detectors on one registry must land on the same counter.
        registry = MetricsRegistry()
        registry.counter("periods_total").inc()
        registry.counter("periods_total").inc()
        assert registry.get("periods_total").value == 2.0


class TestNullRegistry:
    def test_disabled_and_empty(self):
        registry = NullRegistry()
        assert registry.enabled is False
        assert len(registry) == 0
        assert registry.collect() == []
        assert registry.get("anything") is None
        assert "anything" not in registry

    def test_instruments_absorb_everything(self):
        registry = NullRegistry()
        counter = registry.counter("x", "help", ("a", "b"))
        counter.labels("1", "2").inc(5)
        gauge = registry.gauge("y")
        gauge.set(1.0)
        gauge.dec()
        histogram = registry.histogram("z", buckets=(1.0,))
        histogram.observe(0.5)
        # Nothing registered, nothing raised.
        assert registry.collect() == []

    def test_all_factories_return_the_shared_instrument(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.gauge("b")
        assert registry.gauge("b") is registry.histogram("c")


class TestHistogramQuantile:
    """quantile(q): linear interpolation over cumulative buckets."""

    def test_interpolates_inside_a_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        # target = 0.5 * 4 = 2 observations -> halfway into (1, 2].
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        # target = 3 -> exactly the (1, 2] bucket's upper edge.
        assert histogram.quantile(0.75) == pytest.approx(2.0)
        # target = 3.8 -> 80% into (2, 4].
        assert histogram.quantile(0.95) == pytest.approx(3.6)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram("h", buckets=(10.0, 20.0))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(1.0) == pytest.approx(10.0)

    def test_overflow_returns_highest_finite_bound(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(100.0)  # beyond every bucket
        assert histogram.quantile(0.99) == 2.0

    def test_empty_histogram_returns_none(self):
        assert Histogram("h", buckets=(1.0,)).quantile(0.5) is None

    def test_q_zero_is_lower_edge_of_first_nonempty_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        histogram.observe(3.0)  # only the (2, 4] bucket has mass
        assert histogram.quantile(0.0) == pytest.approx(2.0)

    def test_out_of_range_q_raises(self):
        histogram = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_non_positive_first_bucket_edge(self):
        histogram = Histogram("h", buckets=(-1.0, 1.0))
        histogram.observe(-2.0)
        assert histogram.quantile(0.5) == -1.0

    def test_explicit_inf_bucket_reports_last_finite_bound(self):
        # Mass landing in an explicit +Inf bucket has nothing to
        # interpolate toward: the estimate is the highest finite bound,
        # never inf itself.
        import math

        histogram = Histogram("h", buckets=(1.0, 2.0, math.inf))
        histogram.observe(50.0)
        value = histogram.quantile(0.99)
        assert value == 2.0
        assert math.isfinite(value)

    def test_bare_inf_bucket_list_reports_none(self):
        # A histogram with no finite bound knows nothing about
        # magnitudes — it must say so with None, not invent 0.0 or inf.
        import math

        histogram = Histogram("h", buckets=(math.inf,))
        histogram.observe(50.0)
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(0.99) is None

    def test_empty_histogram_with_inf_bucket_is_still_none(self):
        import math

        assert Histogram("h", buckets=(1.0, math.inf)).quantile(0.5) is None

    def test_null_registry_quantile_is_none(self):
        assert NullRegistry().histogram("h").quantile(0.5) is None
