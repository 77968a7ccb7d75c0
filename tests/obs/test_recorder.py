"""Flight recorder: ring wraparound and alarm-context capture."""

import pytest

from repro.core.syndog import DetectionRecord, SynDog
from repro.obs.events import EventLog, MemorySink
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Instrumentation


def period(index, alarm=False, statistic=0.0):
    """One period as the detector hands it to the recorder: the
    snapshot the tape keeps and the record its summary folds."""
    record = DetectionRecord(
        index, index * 20.0, (index + 1) * 20.0, 100, 100, 100.0, 0.0,
        statistic, alarm, False,
    )
    return record.snapshot(1.05), record


class TestRingBuffer:
    def test_wraparound_keeps_last_capacity_snapshots(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(20):
            recorder.record("a", *period(index))
        window = recorder.window("a")
        assert len(window) == 8
        assert [s["period_index"] for s in window] == list(range(12, 20))
        assert recorder.status()["a"]["periods"] == 20

    def test_agents_are_independent(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("a", *period(0))
        recorder.record("b", *period(0))
        recorder.record("b", *period(1))
        assert len(recorder.window("a")) == 1
        assert len(recorder.window("b")) == 2
        assert recorder.agents == ["a", "b"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestAlarmContext:
    def test_emitted_exactly_once_per_transition(self):
        sink = MemorySink()
        recorder = FlightRecorder(
            capacity=32, post_alarm_periods=2, events=EventLog(sink)
        )
        for index in range(12):
            recorder.record("a", *period(index))
        # Raise, hold, clear — one transition, one context.
        recorder.record("a", *period(12, alarm=True, statistic=2.0))
        recorder.record("a", *period(13, alarm=True, statistic=3.0))
        recorder.record("a", *period(14, alarm=True, statistic=3.5))
        recorder.record("a", *period(15, alarm=False))
        assert recorder.contexts_emitted == 1
        [context] = sink.of_kind("alarm_context")
        assert context["agent"] == "a"
        assert context["alarm_period"] == 12
        assert context["pre_count"] == 12
        assert context["post_count"] == 2
        assert [s["period_index"] for s in context["pre_periods"]] \
            == list(range(12))
        assert context["alarm_snapshot"]["statistic"] == 2.0
        # A second transition yields a second context.
        recorder.record("a", *period(16, alarm=True, statistic=2.2))
        recorder.record("a", *period(17))
        recorder.record("a", *period(18))
        assert recorder.contexts_emitted == 2
        assert len(sink.of_kind("alarm_context")) == 2

    def test_pre_window_bounded_by_capacity(self):
        recorder = FlightRecorder(capacity=10, post_alarm_periods=0)
        for index in range(50):
            recorder.record("a", *period(index))
        context = recorder.record("a", *period(50, alarm=True, statistic=2.0))
        assert context is not None
        assert context["pre_count"] == 10
        assert context["pre_periods"][0]["period_index"] == 40

    def test_flush_emits_pending_context_at_end_of_run(self):
        sink = MemorySink()
        recorder = FlightRecorder(
            capacity=16, post_alarm_periods=5, events=EventLog(sink)
        )
        for index in range(11):
            recorder.record("a", *period(index))
        recorder.record("a", *period(11, alarm=True, statistic=1.5))
        recorder.record("a", *period(12, alarm=True, statistic=1.8))
        assert recorder.contexts_emitted == 0  # still waiting on post
        assert recorder.flush() == 1
        [context] = sink.of_kind("alarm_context")
        assert context["post_count"] == 1
        assert recorder.flush() == 0  # idempotent

    def test_rapid_realarm_closes_previous_context_first(self):
        recorder = FlightRecorder(capacity=16, post_alarm_periods=10)
        recorder.record("a", *period(0))
        recorder.record("a", *period(1, alarm=True, statistic=1.2))
        recorder.record("a", *period(2, alarm=False))
        # Re-alarm before 10 post periods collected.
        recorder.record("a", *period(3, alarm=True, statistic=1.4))
        assert recorder.contexts_emitted == 1
        recorder.flush()
        assert recorder.contexts_emitted == 2
        first, second = recorder.contexts
        assert first["alarm_period"] == 1
        assert second["alarm_period"] == 3


class TestStatus:
    def test_status_reports_live_state(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("a", *period(0, statistic=0.3))
        recorder.record("a", *period(1, alarm=True, statistic=1.2))
        status = recorder.status()["a"]
        assert status["periods"] == 2
        assert status["alarm"] is True
        assert status["alarms_seen"] == 1
        assert status["statistic"] == 1.2
        assert status["last_period_index"] == 1


class TestSynDogIntegration:
    def test_detector_alarm_yields_exactly_one_context(self):
        obs = Instrumentation(
            events=EventLog(MemorySink()),
            recorder=FlightRecorder(post_alarm_periods=3),
        )
        dog = SynDog(obs=obs, name="router-lab")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)  # flood
        assert dog.alarm
        for _ in range(5):
            dog.observe_period(5000, 100)
        [sink] = [s for s in obs.events.sinks()
                  if isinstance(s, MemorySink)]
        [context] = sink.of_kind("alarm_context")
        assert context["agent"] == "router-lab"
        assert context["pre_count"] == 12
        assert context["pre_count"] >= 10  # the acceptance bar
        assert context["threshold"] == dog.parameters.threshold
        assert all(not s["alarm"] for s in context["pre_periods"])
        assert obs.recorder.status()["router-lab"]["alarm"] is True

    def test_default_detector_pays_nothing(self):
        dog = SynDog()
        dog.observe_period(100, 100)
        assert dog._recorder is None


