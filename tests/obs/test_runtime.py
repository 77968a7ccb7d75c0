"""The Instrumentation bundle and the null default."""

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
        assert obs.registry is None
        assert obs.events is None

    def test_enabled_bundle(self):
        obs = enabled_instrumentation()
        assert obs.enabled is True
        assert obs.registry is not None
        assert obs.events is not None

    def test_partial_bundle_counts_as_enabled(self):
        from repro.obs.metrics import MetricsRegistry

        obs = Instrumentation(registry=MetricsRegistry())
        assert obs.enabled is True
        assert obs.events is None

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


SLOTS = ("registry", "events", "recorder", "tsdb", "alerts", "profiler")


class TestTheNullBundleStandsAlone:
    """A disabled component is ``None`` and nothing else, so the null
    bundle holds no component object at all."""

    def test_every_disabled_slot_is_none(self):
        from repro.obs.metrics import MetricsRegistry

        assert {getattr(NULL_INSTRUMENTATION, s) for s in SLOTS} == {None}
        registry = MetricsRegistry()
        partial = Instrumentation(registry=registry)
        assert partial.registry is registry
        assert {getattr(partial, s) for s in SLOTS[1:]} == {None}

    def test_bundle_readers_guard_the_empty_slots(self):
        assert NULL_INSTRUMENTATION.summary() == {
            "enabled": False,
            "metrics_families": 0,
            "events_emitted": 0,
            "events_dropped": 0,
            "alarm_contexts": 0,
            "agents": {},
            "tsdb_series": 0,
            "alerts_firing": [],
            "profile_stages": 0,
        }
        assert NULL_INSTRUMENTATION.memory_events() is None
        assert "enabled=False" in repr(NULL_INSTRUMENTATION)

    def test_null_instrumentation_is_one_object_on_every_path(self):
        import repro.obs
        from repro.obs import NULL_INSTRUMENTATION as from_package
        from repro.obs import runtime

        assert from_package is NULL_INSTRUMENTATION
        assert repro.obs.NULL_INSTRUMENTATION is NULL_INSTRUMENTATION
        assert runtime.NULL_INSTRUMENTATION is NULL_INSTRUMENTATION
