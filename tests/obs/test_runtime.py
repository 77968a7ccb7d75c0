"""The Instrumentation bundle and the null default."""

import pytest

from repro.obs.events import MemorySink
from repro.obs.exporters import parse_prometheus_text
from repro.obs.runtime import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    enabled_instrumentation,
    resolve_instrumentation,
)


class TestInstrumentation:
    def test_default_bundle_is_fully_disabled(self):
        obs = Instrumentation()
        assert obs.enabled is False
        assert obs.registry.enabled is False
        assert obs.events.enabled is False

    def test_enabled_bundle(self):
        obs = enabled_instrumentation()
        assert obs.enabled is True
        assert obs.registry.enabled is True
        assert obs.events.enabled is True

    def test_partial_bundle_counts_as_enabled(self):
        from repro.obs.metrics import MetricsRegistry

        obs = Instrumentation(registry=MetricsRegistry())
        assert obs.enabled is True
        assert obs.events.enabled is False

    def test_events_path_gets_a_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = enabled_instrumentation(events_path=path, memory_events=False)
        obs.events.emit("period", period_index=0)
        obs.finalize()
        from repro.obs.events import read_jsonl

        [event] = read_jsonl(path)
        assert event["event"] == "period"

    def test_memory_sink_is_bounded(self):
        obs = enabled_instrumentation(max_memory_events=3)
        for _ in range(10):
            obs.events.emit("period")
        sinks = obs.events._sinks
        [memory] = [s for s in sinks if isinstance(s, MemorySink)]
        assert len(memory.events) == 3
        assert memory.dropped == 7


class TestFinalize:
    def test_folds_event_stats_and_writes_metrics(self, tmp_path):
        obs = enabled_instrumentation()
        obs.registry.counter("periods_total").inc(5)
        obs.events.emit("period")
        path = tmp_path / "metrics.prom"
        samples = obs.finalize(path)
        parsed = parse_prometheus_text(path.read_text())
        assert samples == len(parsed)
        names = {name for name, _, _ in parsed}
        assert "periods_total" in names
        assert "obs_events_emitted_total" in names

    def test_null_finalize_writes_nothing(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert NULL_INSTRUMENTATION.finalize(path) == 0
        assert not path.exists()

    def test_finalize_without_path_returns_zero(self):
        obs = enabled_instrumentation()
        obs.registry.counter("x").inc()
        assert obs.finalize() == 0


class TestProcessDefault:
    def test_default_is_the_null_bundle(self):
        assert resolve_instrumentation(None) is NULL_INSTRUMENTATION

    def test_explicit_obs_wins_over_default(self):
        obs = enabled_instrumentation()
        assert resolve_instrumentation(obs) is obs


class TestTheNullBundleStandsAlone:
    """The disabled components live in standard-library code
    (:mod:`repro.obs.null`); the live modules re-export them."""

    @pytest.mark.parametrize("module, name, slot", [
        ("metrics", "NullRegistry", "registry"),
        ("events", "NullEventLog", "events"),
        ("recorder", "NullFlightRecorder", "recorder"),
        ("tsdb", "NullTSDB", "tsdb"),
        ("alerts", "NullAlertManager", "alerts"),
        ("profiler", "NullProfiler", "profiler"),
    ])
    def test_each_null_class_is_one_class_on_every_path(self, module, name, slot):
        import importlib

        import repro.obs
        from repro.obs import null

        cls = getattr(null, name)
        assert getattr(importlib.import_module(f"repro.obs.{module}"), name) is cls
        assert getattr(repro.obs, name) is cls
        assert type(getattr(NULL_INSTRUMENTATION, slot)) is cls

    def test_null_instrumentation_is_one_object_on_every_path(self):
        import repro.obs
        from repro.obs import NULL_INSTRUMENTATION as from_package
        from repro.obs import runtime

        assert from_package is NULL_INSTRUMENTATION
        assert repro.obs.NULL_INSTRUMENTATION is NULL_INSTRUMENTATION
        assert runtime.NULL_INSTRUMENTATION is NULL_INSTRUMENTATION
