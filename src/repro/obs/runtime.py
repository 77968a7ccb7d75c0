"""The instrumentation bundle and its process-wide default.

Every instrumented component in the pipeline takes an optional
``obs: Instrumentation`` argument.  Passing one wires that component to
an explicit registry, event log, recorder and so on; passing ``None`` (the
universal default) resolves the *current* process-wide instrumentation,
which is :data:`NULL_INSTRUMENTATION` unless the operator installed a
live one.  Components check ``obs.enabled`` **once, at construction**,
and bind their instruments to ``None`` when disabled — the hot-path
contract that keeps the default pipeline indistinguishable from an
uninstrumented build (``benchmarks/test_obs_overhead.py`` holds the
line at ≤10%).

This module and :mod:`repro.obs.null` are all a process with obs off
loads: the live components are imported by :func:`enabled_instrumentation`
(or by whoever builds one), never by the bundle itself.

Typical operator setup::

    from repro.obs import enabled_instrumentation, instrumented

    obs = enabled_instrumentation(events_path="events.jsonl")
    with instrumented(obs):
        dog = SynDog()            # picks up obs automatically
        ...
    obs.finalize("metrics.prom")  # folds profile + event loss in, writes
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from .null import (
    NullAlertManager,
    NullEventLog,
    NullFlightRecorder,
    NullProfiler,
    NullRegistry,
    NullTSDB,
)

if TYPE_CHECKING:
    from .events import MemorySink

__all__ = [
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "enabled_instrumentation",
    "get_instrumentation",
    "set_instrumentation",
    "instrumented",
    "resolve_instrumentation",
]


class Instrumentation:
    """A registry + event log + flight recorder + telemetry history
    store + alert manager + profiler, handed around as one object."""

    def __init__(
        self,
        registry: Optional[Any] = None,
        events: Optional[Any] = None,
        recorder: Optional[Any] = None,
        tsdb: Optional[Any] = None,
        alerts: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.registry = registry if registry is not None else NullRegistry()
        self.events = events if events is not None else NullEventLog()
        self.recorder = (
            recorder if recorder is not None else NullFlightRecorder()
        )
        self.tsdb = tsdb if tsdb is not None else NullTSDB()
        self.alerts = alerts if alerts is not None else NullAlertManager()
        self.profiler = profiler if profiler is not None else NullProfiler()
        # A live recorder handed in without its own event log emits
        # alarm contexts into the bundle's (when that one is live).
        if (
            self.recorder.enabled
            and getattr(self.recorder, "_events", None) is None
            and self.events.enabled
        ):
            self.recorder.bind_events(self.events)
        # The history store snapshots whatever this bundle records; the
        # alert manager queries the store and annotates firings with
        # event-log / flight-recorder context.
        if self.tsdb.enabled:
            self.tsdb.bind(
                registry=self.registry,
                events=self.events,
                profiler=self.profiler if self.profiler.enabled else None,
            )
        if self.alerts.enabled:
            self.alerts.bind(
                tsdb=self.tsdb,
                events=self.events if self.events.enabled else None,
                recorder=self.recorder if self.recorder.enabled else None,
            )

    @property
    def enabled(self) -> bool:
        return (
            self.registry.enabled
            or self.events.enabled
            or self.recorder.enabled
            or self.tsdb.enabled
            or self.profiler.enabled
        )

    def finalize(self, metrics_path: Optional[Union[str, Any]] = None) -> int:
        """End-of-run bookkeeping: flush pending alarm contexts, fold
        the profile and event-loss counters into the registry,
        write the Prometheus file (when asked, atomically), close event
        sinks.  Returns the number of exported sample lines (0 when no
        metrics path was given)."""
        samples = 0
        self.recorder.flush()
        # Close live alerts before the event log: end-of-stream
        # resolutions must still reach the JSONL sinks.
        self.alerts.close()
        # The profile document rides the event stream so offline
        # forensics (``repro report --profile``) can attribute cost
        # without a live server.
        if self.profiler.enabled and self.events.enabled:
            self.events.emit("profile", **self.profiler.to_dict())
        if self.registry.enabled:
            from .exporters import (
                export_event_stats,
                export_profiler,
                write_prometheus,
            )

            if self.profiler.enabled:
                export_profiler(self.profiler, self.registry)
            export_event_stats(self.events, self.registry)
            if metrics_path is not None:
                samples = write_prometheus(self.registry, metrics_path)
        self.events.close()
        return samples

    def summary(self) -> dict:
        """The run's observability bookkeeping in one dict — what a CLI
        prints after ``finalize``.  ``events_dropped`` is here on
        purpose: bounded sinks drop silently and an operator must see
        that loss."""
        return {
            "enabled": self.enabled,
            "metrics_families": len(self.registry),
            "events_emitted": self.events.events_emitted,
            "events_dropped": getattr(self.events, "dropped", 0),
            "alarm_contexts": self.recorder.contexts_emitted,
            "agents": self.recorder.status(),
            "tsdb_series": len(self.tsdb),
            "alerts_firing": self.alerts.firing(),
            "profile_stages": len(self.profiler),
        }

    def memory_events(self) -> Optional[MemorySink]:
        """The bundle's in-memory event sink, when one is attached."""
        from .events import MemorySink

        for sink in getattr(self.events, "sinks", lambda: [])():
            if isinstance(sink, MemorySink):
                return sink
        return None

    def __repr__(self) -> str:
        return (
            f"Instrumentation(enabled={self.enabled}, "
            f"metrics={len(self.registry)}, "
            f"events={self.events.events_emitted})"
        )


#: The disabled default: every component is a no-op.
NULL_INSTRUMENTATION = Instrumentation()

_current: Instrumentation = NULL_INSTRUMENTATION


def enabled_instrumentation(
    events_path: Optional[Any] = None,
    memory_events: bool = True,
    max_memory_events: Optional[int] = 100_000,
    flight_recorder: bool = True,
    recorder_capacity: int = 120,
    recorder_post_periods: int = 5,
    tsdb: bool = True,
    tsdb_retention: int = 4096,
    alert_rules: Optional[Any] = None,
    profiler: Optional[str] = None,
    profiler_sample_every: int = 64,
) -> Instrumentation:
    """A fully live bundle: real registry, event log with
    a JSONL sink at *events_path* (when given) and/or an in-memory sink
    (bounded, for summaries), a flight recorder so every alarm carries
    its pre-alarm detector-state window, and a bounded telemetry
    history store (``tsdb=False`` opts out).  Passing *alert_rules* (a
    sequence of :class:`~repro.obs.alerts.AlertRule`) additionally arms
    live alert evaluation every observation period.  Passing *profiler*
    (``"timers"`` or ``"cost-model"``) arms per-stage cost attribution
    (see :mod:`repro.obs.profiler`); it is off by default because,
    unlike the rest of the bundle, its hot-path handles live inside the
    packet loop."""
    # Imported here, not with the module, so that obs off loads none.
    from .alerts import AlertManager
    from .events import EventLog, JsonlSink, MemorySink
    from .metrics import MetricsRegistry
    from .profiler import Profiler
    from .recorder import FlightRecorder
    from .tsdb import TimeSeriesDB

    sinks = []
    if events_path is not None:
        sinks.append(JsonlSink(events_path))
    if memory_events:
        sinks.append(MemorySink(max_events=max_memory_events))
    events = EventLog(*sinks)
    recorder = (
        FlightRecorder(
            capacity=recorder_capacity,
            post_alarm_periods=recorder_post_periods,
            events=events,
        )
        if flight_recorder
        else None
    )
    return Instrumentation(
        registry=MetricsRegistry(),
        events=events,
        recorder=recorder,
        tsdb=TimeSeriesDB(retention=tsdb_retention) if tsdb else None,
        alerts=AlertManager(rules=alert_rules) if alert_rules else None,
        profiler=(
            Profiler(mode=profiler, sample_every=profiler_sample_every)
            if profiler
            else None
        ),
    )


def get_instrumentation() -> Instrumentation:
    """The current process-wide instrumentation."""
    return _current


def set_instrumentation(obs: Optional[Instrumentation]) -> Instrumentation:
    """Install *obs* (None restores the null default); returns the
    previous one so callers can restore it."""
    global _current
    previous = _current
    _current = obs if obs is not None else NULL_INSTRUMENTATION
    return previous


@contextmanager
def instrumented(obs: Instrumentation) -> Iterator[Instrumentation]:
    """Scope *obs* as the process default for the ``with`` block."""
    previous = set_instrumentation(obs)
    try:
        yield obs
    finally:
        set_instrumentation(previous)


def resolve_instrumentation(
    obs: Optional[Instrumentation],
) -> Instrumentation:
    """What instrumented components call on their ``obs=None`` default."""
    return obs if obs is not None else _current
