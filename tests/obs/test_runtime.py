"""The Instrumentation bundle and the process-wide default."""

import pytest

from repro.obs.events import MemorySink
from repro.obs.exporters import parse_prometheus_text
from repro.obs.runtime import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    enabled_instrumentation,
    get_instrumentation,
    instrumented,
    resolve_instrumentation,
    set_instrumentation,
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
        assert get_instrumentation() is NULL_INSTRUMENTATION
        assert resolve_instrumentation(None) is NULL_INSTRUMENTATION

    def test_explicit_obs_wins_over_default(self):
        obs = enabled_instrumentation()
        assert resolve_instrumentation(obs) is obs

    def test_instrumented_scopes_and_restores(self):
        obs = enabled_instrumentation()
        with instrumented(obs) as scoped:
            assert scoped is obs
            assert get_instrumentation() is obs
            assert resolve_instrumentation(None) is obs
        assert get_instrumentation() is NULL_INSTRUMENTATION

    def test_instrumented_restores_on_exception(self):
        obs = enabled_instrumentation()
        with pytest.raises(RuntimeError):
            with instrumented(obs):
                raise RuntimeError("boom")
        assert get_instrumentation() is NULL_INSTRUMENTATION

    def test_set_returns_previous_and_none_resets(self):
        obs = enabled_instrumentation()
        previous = set_instrumentation(obs)
        try:
            assert previous is NULL_INSTRUMENTATION
            assert set_instrumentation(None) is obs
            assert get_instrumentation() is NULL_INSTRUMENTATION
        finally:
            set_instrumentation(None)


class TestTheNullBundleStandsAlone:
    """The disabled components live in standard-library code
    (:mod:`repro.obs.null`); the live modules re-export them, and a
    scoped live bundle still reaches components built with ``obs=None``."""

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
        assert get_instrumentation() is NULL_INSTRUMENTATION

    def test_obs_none_components_bind_a_scoped_live_bundle(self):
        from repro.core.sniffer import CountExchange
        from repro.core.syndog import SynDog

        obs = enabled_instrumentation()
        with instrumented(obs):
            dog = SynDog(name="scoped")
            exchange = CountExchange(observation_period=20.0)
        dog.observe_period(100, 98)
        exchange.flush(end_time=45.0)
        registry = obs.registry
        assert registry.get("syndog_periods_total").value == 1
        # The dog is count-driven, so only this exchange closes periods:
        # two boundaries up to 45 s, then the trailing one.
        assert registry.get("exchange_periods_total").value == 2 + 1
        events = obs.memory_events().events
        assert [e["event"] for e in events] == ["period"]
        assert events[0]["agent"] == "scoped"
        assert obs.tsdb.names()  # the trajectory writer was built
