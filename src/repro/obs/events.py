"""Structured event logging with JSONL sinks.

Metrics answer "how much"; events answer "what happened, in order".
The detection pipeline emits one structured event per observation
period (the CUSUM trajectory an operator tails in production), plus
discrete events for alarm transitions, responses and experiment
trials.  Every event is a flat JSON-serializable dict with an ``event``
kind and a monotonically increasing ``seq``, so a JSONL stream can be
re-ordered, filtered with ``jq``, or replayed.

Sinks are write-only observers.  :class:`MemorySink` retains events
in-process (tests, summaries); :class:`JsonlSink` streams one JSON
object per line to a file — the format every log shipper understands.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Union

__all__ = [
    "EventLog",
    "JsonlSink",
    "MemorySink",
    "read_jsonl",
]

PathLike = Union[str, Path]
Event = Dict[str, Any]


class MemorySink:
    """Keeps events in a list (optionally bounded)."""

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[Event] = []
        self.max_events = max_events
        self.dropped = 0

    def write(self, event: Event) -> bool:
        """Retain *event*; True when the bound dropped it instead."""
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return True
        self.events.append(event)
        return False

    def close(self) -> None:
        pass

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.get("event") == kind]

    def tail(self, n: int) -> List[Event]:
        """The last *n* retained events (what ``/events?n=K`` serves)."""
        if n <= 0:
            return []
        return self.events[-n:]


class JsonlSink:
    """Streams events to a file as JSON Lines.

    Accepts a path (opened and owned — closed by :meth:`close`) or an
    already-open text stream (borrowed — left open).  Keys are kept in
    insertion order: ``event`` and ``seq`` first, then the payload, so
    the raw file is human-scannable.
    """

    def __init__(self, target: Union[PathLike, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.events_written = 0

    def write(self, event: Event) -> None:
        self._stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class EventLog:
    """The emitting side: stamps ``event`` and ``seq``, fans out to
    every sink.  With no sinks it still counts emissions (cheap), so a
    summary can report how chatty a run was.

    ``events_emitted`` (the next ``seq``) and ``dropped`` are plain
    attributes kept current by :meth:`emit`, so the TSDB's per-period
    tick reads both without asking each sink.  A sink's ``write``
    returns True when a bound made it drop the event."""

    def __init__(self, *sinks: Any) -> None:
        self._sinks: List[Any] = []
        self.events_emitted = 0
        #: Events silently dropped by bounded sinks, summed over sinks —
        #: must be surfaced (``obs_events_dropped_total``), or event
        #: loss is invisible.
        self.dropped = 0
        for sink in sinks:
            self.add_sink(sink)

    def add_sink(self, sink: Any) -> None:
        self._sinks.append(sink)
        self.dropped += getattr(sink, "dropped", 0)

    def sinks(self) -> List[Any]:
        """The attached sinks (read-only view for exporters/servers)."""
        return list(self._sinks)

    def emit(
        self, kind: str, payload: Optional[Event] = None, /, **fields: Any
    ) -> Event:
        """Stamp and fan out one event: ``event``, ``seq``, *fields*,
        then the prebuilt *payload* dict, if any (the detector's period
        snapshot, also handed to the flight recorder)."""
        event: Event = {"event": kind, "seq": self.events_emitted, **fields}
        if payload is not None:
            event.update(payload)
        self.events_emitted += 1
        for sink in self._sinks:
            if sink.write(event):
                self.dropped += 1
        return event

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_jsonl(path: PathLike) -> List[Event]:
    """Load a JSONL file back into event dicts (blank lines skipped)."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
