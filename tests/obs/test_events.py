"""Structured event log: sinks, sequencing, JSONL round-trip."""

import io
import json

from repro.obs.events import (
    EventLog,
    JsonlSink,
    MemorySink,
    read_jsonl,
)


class TestEventLog:
    def test_emit_stamps_kind_and_monotonic_seq(self):
        sink = MemorySink()
        log = EventLog(sink)
        log.emit("period", x=1.0)
        log.emit("alarm_raised", period_index=3)
        assert sink.events[0] == {"event": "period", "seq": 0, "x": 1.0}
        assert sink.events[1]["seq"] == 1
        assert log.events_emitted == 2

    def test_fans_out_to_every_sink(self):
        first, second = MemorySink(), MemorySink()
        log = EventLog(first)
        log.add_sink(second)
        log.emit("period")
        assert len(first.events) == 1
        assert len(second.events) == 1

    def test_counts_emissions_even_without_sinks(self):
        log = EventLog()
        log.emit("period")
        assert log.events_emitted == 1


class TestMemorySink:
    def test_bounded_sink_drops_and_counts(self):
        sink = MemorySink(max_events=2)
        log = EventLog(sink)
        for _ in range(5):
            log.emit("period")
        assert len(sink.events) == 2
        assert sink.dropped == 3

    def test_of_kind_filters(self):
        sink = MemorySink()
        log = EventLog(sink)
        log.emit("period")
        log.emit("alarm_raised")
        log.emit("period")
        assert len(sink.of_kind("period")) == 2
        assert len(sink.of_kind("alarm_raised")) == 1


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(path))
        log.emit("period", period_index=0, statistic=0.5, alarm=False)
        log.emit("period", period_index=1, statistic=1.2, alarm=True)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "period"
        assert first["alarm"] is False
        # Keys in insertion order: event/seq lead, payload follows.
        assert list(first)[:2] == ["event", "seq"]

    def test_round_trips_through_read_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(path))
        emitted = [log.emit("trial", seed=i) for i in range(3)]
        log.close()
        assert read_jsonl(path) == emitted

    def test_borrowed_stream_left_open(self):
        stream = io.StringIO()
        with JsonlSink(stream) as sink:
            sink.write({"event": "x", "seq": 0})
        assert not stream.closed
        assert json.loads(stream.getvalue()) == {"event": "x", "seq": 0}
        assert sink.events_written == 1

    def test_owned_path_closed_by_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        sink.close()
        assert sink._stream.closed


