"""Prometheus text rendering, its round-trip parser, and the atomic
file writer."""

import pytest

from repro.obs.exporters import (
    parse_prometheus_text,
    registry_to_dicts,
    render_prometheus,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    packets = registry.counter(
        "packets_total", "Packets seen", ("direction",)
    )
    packets.labels("out").inc(42)
    packets.labels("in").inc(7)
    registry.gauge("k_bar", "EWMA estimate").set(692.5)
    histogram = registry.histogram(
        "trial_seconds", "Trial wall clock", buckets=(0.5, 1.0)
    )
    histogram.observe(0.25)
    histogram.observe(0.85)
    return registry


class TestRender:
    def test_help_and_type_lines(self):
        text = render_prometheus(build_registry())
        assert "# HELP packets_total Packets seen" in text
        assert "# TYPE packets_total counter" in text
        assert "# TYPE k_bar gauge" in text
        assert "# TYPE trial_seconds histogram" in text

    def test_sample_lines(self):
        text = render_prometheus(build_registry())
        assert 'packets_total{direction="out"} 42' in text
        assert 'packets_total{direction="in"} 7' in text
        assert "k_bar 692.5" in text
        assert 'trial_seconds_bucket{le="+Inf"} 2' in text
        assert "trial_seconds_sum 1.1" in text
        assert "trial_seconds_count 2" in text

    def test_integral_floats_render_without_decimal(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.0)
        assert "g 3\n" in render_prometheus(registry)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", labelnames=("path",))
        counter.labels('tricky"\\\n').inc()
        text = render_prometheus(registry)
        assert r'x_total{path="tricky\"\\\n"} 1' in text
        # And the parser undoes the escaping exactly.
        [(_, labels, value)] = parse_prometheus_text(text)
        assert labels == {"path": 'tricky"\\\n'}
        assert value == 1.0

    def test_empty_registry_renders_empty_string(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestRoundTrip:
    def test_parse_recovers_every_sample(self):
        registry = build_registry()
        samples = parse_prometheus_text(render_prometheus(registry))
        as_map = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in samples
        }
        assert as_map[("packets_total", (("direction", "out"),))] == 42.0
        assert as_map[("k_bar", ())] == 692.5
        assert as_map[("trial_seconds_bucket", (("le", "+Inf"),))] == 2.0
        # 2 counter children + gauge + 2 buckets + Inf + sum + count
        assert len(samples) == 8

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("just_a_name_no_value")
        with pytest.raises(ValueError):
            parse_prometheus_text("bad name 1")

    def test_write_returns_sample_line_count(self, tmp_path):
        path = tmp_path / "metrics.prom"
        count = write_prometheus(build_registry(), path)
        text = path.read_text()
        assert count == 8
        assert len(parse_prometheus_text(text)) == count


class TestRegistryToDicts:
    def test_rows_carry_type_and_labels(self):
        rows = registry_to_dicts(build_registry())
        by_metric = {}
        for row in rows:
            by_metric.setdefault(row["metric"], []).append(row)
        assert {r["labels"]["direction"] for r in by_metric["packets_total"]} \
            == {"out", "in"}
        assert by_metric["k_bar"][0]["type"] == "gauge"
        assert by_metric["trial_seconds_count"][0]["value"] == 2.0


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(build_registry(), path)
        write_prometheus(build_registry(), path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]
        assert parse_prometheus_text(path.read_text())

    def test_replaces_previous_content_completely(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(build_registry(), path)
        from repro.obs.metrics import MetricsRegistry

        small = MetricsRegistry()
        small.gauge("only_one").set(1.0)
        write_prometheus(small, path)
        [(name, _, value)] = parse_prometheus_text(path.read_text())
        assert (name, value) == ("only_one", 1.0)


class TestExportEventStats:
    def test_dropped_and_emitted_counters_exported(self):
        from repro.obs.events import EventLog, MemorySink
        from repro.obs.exporters import export_event_stats
        from repro.obs.metrics import MetricsRegistry

        log = EventLog(MemorySink(max_events=2))
        for _ in range(5):
            log.emit("period")
        registry = MetricsRegistry()
        export_event_stats(log, registry)
        assert registry.get("obs_events_emitted_total").value == 5.0
        assert registry.get("obs_events_dropped_total").value == 3.0
        # Idempotent re-export, then incremental growth.
        export_event_stats(log, registry)
        assert registry.get("obs_events_dropped_total").value == 3.0
        log.emit("period")
        export_event_stats(log, registry)
        assert registry.get("obs_events_emitted_total").value == 6.0
        assert registry.get("obs_events_dropped_total").value == 4.0

    def test_disabled_event_log_exports_nothing(self):
        from repro.obs.exporters import export_event_stats
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        export_event_stats(None, registry)
        assert len(registry) == 0


class TestSummarizeHistograms:
    def test_rows_carry_quantiles(self):
        from repro.obs.exporters import summarize_histograms
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        latency = registry.histogram(
            "op_seconds", "per-op latency", ("op",), buckets=(0.1, 1.0)
        )
        for _ in range(10):
            latency.labels("scan").observe(0.05)
        registry.histogram("empty_seconds", buckets=(1.0,))  # skipped
        [row] = summarize_histograms(registry)
        assert row["metric"] == "op_seconds"
        assert row["labels"] == {"op": "scan"}
        assert row["count"] == 10
        assert row["mean"] == pytest.approx(0.05)
        assert 0.0 < row["p50"] <= 0.1
        assert set(row) >= {"p50", "p95", "p99"}
