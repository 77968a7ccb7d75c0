"""The instrumentation bundle and the per-agent summary.

Every instrumented component in the pipeline takes an optional
``obs: Instrumentation`` argument.  Passing one wires that component to
an explicit registry, event log, recorder and so on; passing ``None`` (the
universal default) resolves to :data:`NULL_INSTRUMENTATION`, whose six
component slots all hold ``None``.  A disabled component is ``None`` and
nothing else: components check ``obs.<component> is not None`` **once, at
construction**, and bind their instruments to ``None`` when it is absent —
the hot-path contract that keeps the default pipeline indistinguishable
from an uninstrumented build (``benchmarks/test_obs_overhead.py`` holds
the line at ≤10%).

:class:`AgentSummary` is one agent's running state, folded one period at
a time: the detector keeps one, each flight-recorder tape keeps one, and
an event-log replay keeps one per agent, so ``/healthz``, ``/fleet``,
``Federation.status()`` and ``repro fleet --events`` all read the same
fold.

This module is all of :mod:`repro.obs` a process with obs off loads: the
live components are imported by :func:`enabled_instrumentation` (or by
whoever builds one), never by the bundle itself.

Typical operator setup::

    from repro.obs import enabled_instrumentation

    obs = enabled_instrumentation(events_path="events.jsonl")
    dog = SynDog(obs=obs)
    ...
    obs.finalize("metrics.prom")  # folds profile + event loss in, writes
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:
    from .events import MemorySink

__all__ = [
    "AgentSummary",
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "enabled_instrumentation",
    "resolve_instrumentation",
]

#: The per-period fields an :class:`AgentSummary` folds, in
#: ``DetectionRecord`` order, under their ``period`` event keys.
PERIOD_FIELDS = (
    "period_index", "start_time", "end_time", "syn", "synack", "k_bar",
    "x", "statistic", "alarm", "degraded",
)


def period_of(snapshot: Mapping[str, Any]) -> tuple:
    """A period snapshot or ``period`` event as a tuple in
    :data:`PERIOD_FIELDS` order; a missing count reads 0, a missing
    flag False."""
    get = snapshot.get
    return (
        get("period_index"), get("start_time"), get("end_time"),
        get("syn") or 0, get("synack") or 0, get("k_bar"), get("x") or 0.0,
        get("statistic"), bool(get("alarm")), bool(get("degraded")),
    )


#: What an agent that has closed no period reads as its last period.
NO_PERIOD = period_of({})


class AgentSummary:
    """One agent's running state, folded one period at a time.

    Each period is a tuple in :data:`PERIOD_FIELDS` order: a
    ``DetectionRecord``, or :func:`period_of` a snapshot.  The fold
    keeps the period count, the current alarm, how many times the alarm
    was raised (off→on transitions), the degraded-period count, the
    last period and the first alarmed one.  A period whose index is at
    or below the last one folded is a repeat — a detector restored from
    an older checkpoint closes again the periods it closed before its
    crash — and the fold skips it, so a tape or an event log replayed
    counts each period once, as the live detector does.  All but the
    first alarmed period survive a restart (:meth:`state_dict`); that
    one pairs with the records, which a checkpoint leaves out.
    """

    __slots__ = (
        "periods", "alarm", "alarms", "degraded", "last", "first_alarm",
    )

    def __init__(self) -> None:
        self.periods = self.alarms = self.degraded = 0
        self.alarm = False
        self.last: Optional[Sequence[Any]] = None
        self.first_alarm: Optional[Sequence[Any]] = None

    def fold(self, period: Sequence[Any]) -> None:
        last = self.last
        if last is not None and period[0] <= last[0]:
            return
        self.periods += 1
        self.last = period
        if period[8]:
            if not self.alarm:
                self.alarms += 1
                self.alarm = True
            if self.first_alarm is None:
                self.first_alarm = period
        else:
            self.alarm = False
        if period[9]:
            self.degraded += 1

    def status_row(self) -> Dict[str, Any]:
        """The agent's ``/healthz`` and ``Federation.status()`` row."""
        last = self.last or NO_PERIOD
        return {
            "periods": self.periods,
            "alarm": self.alarm,
            "alarms_seen": self.alarms,
            "degraded_periods": self.degraded,
            "statistic": last[7],
            "k_bar": last[5],
            "last_period_index": last[0],
        }

    def state_dict(self) -> Dict[str, Any]:
        """The checkpoint keys beside ``next_period_index`` and
        ``prev_alarm``, which carry ``periods`` and ``alarm``."""
        last = self.last
        return {
            "alarms_raised": self.alarms,
            "degraded_periods": self.degraded,
            "last_period": (
                None if last is None else dict(zip(PERIOD_FIELDS, last))
            ),
        }

    def load_state(
        self, periods: int, alarm: bool, state: Mapping[str, Any]
    ) -> None:
        """Resume from a checkpoint.  The :meth:`state_dict` keys are
        optional: without them the counts read 0 and there is no last
        period."""
        self.periods, self.alarm = int(periods), bool(alarm)
        self.alarms = int(state.get("alarms_raised", 0))
        self.degraded = int(state.get("degraded_periods", 0))
        last = state.get("last_period")
        self.last = None if last is None else period_of(last)


class Instrumentation:
    """A registry + event log + flight recorder + telemetry history
    store + alert manager + profiler, handed around as one object.

    Each slot holds a live component or ``None``, which is the one way
    a bundle says that component is off."""

    def __init__(
        self,
        registry: Optional[Any] = None,
        events: Optional[Any] = None,
        recorder: Optional[Any] = None,
        tsdb: Optional[Any] = None,
        alerts: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.registry = registry
        self.events = events
        self.recorder = recorder
        self.tsdb = tsdb
        self.alerts = alerts
        self.profiler = profiler
        # A recorder handed in without its own event log emits alarm
        # contexts into the bundle's.
        if (
            recorder is not None
            and recorder._events is None
            and events is not None
        ):
            recorder.bind_events(events)
        # The history store snapshots whatever this bundle records; the
        # alert manager queries the store and annotates firings with
        # event-log / flight-recorder context.
        if tsdb is not None:
            tsdb.bind(registry=registry, events=events)
        if alerts is not None:
            alerts.bind(tsdb=tsdb, events=events, recorder=recorder)

    @property
    def enabled(self) -> bool:
        """Whether any component but the alert manager is live."""
        return not (
            self.registry is None
            and self.events is None
            and self.recorder is None
            and self.tsdb is None
            and self.profiler is None
        )

    def finalize(self, metrics_path: Optional[Union[str, Any]] = None) -> int:
        """End-of-run bookkeeping: flush pending alarm contexts, fold
        the profile and event-loss counters into the registry,
        write the Prometheus file (when asked, atomically), close event
        sinks.  Returns the number of exported sample lines (0 when no
        metrics path was given)."""
        samples = 0
        registry, events, profiler = self.registry, self.events, self.profiler
        if self.recorder is not None:
            self.recorder.flush()
        # Close live alerts before the event log: end-of-stream
        # resolutions must still reach the JSONL sinks.
        if self.alerts is not None:
            self.alerts.close()
        # The profile document rides the event stream so offline
        # forensics (``repro report --profile``) can attribute cost
        # without a live server.
        if profiler is not None and events is not None:
            events.emit("profile", **profiler.to_dict())
        if registry is not None:
            from .exporters import (
                export_event_stats,
                export_profiler,
                write_prometheus,
            )

            if profiler is not None:
                export_profiler(profiler, registry)
            export_event_stats(events, registry)
            if metrics_path is not None:
                samples = write_prometheus(registry, metrics_path)
        if events is not None:
            events.close()
        return samples

    def summary(self) -> dict:
        """The run's observability bookkeeping in one dict — what a CLI
        prints after ``finalize``.  ``events_dropped`` is here on
        purpose: bounded sinks drop silently and an operator must see
        that loss."""
        events, recorder, alerts = self.events, self.recorder, self.alerts
        return {
            "enabled": self.enabled,
            "metrics_families": _size(self.registry),
            "events_emitted": 0 if events is None else events.events_emitted,
            "events_dropped": 0 if events is None else events.dropped,
            "alarm_contexts": (
                0 if recorder is None else recorder.contexts_emitted
            ),
            "agents": {} if recorder is None else recorder.status(),
            "tsdb_series": _size(self.tsdb),
            "alerts_firing": [] if alerts is None else alerts.firing(),
            "profile_stages": _size(self.profiler),
        }

    def memory_events(self) -> Optional[MemorySink]:
        """The bundle's in-memory event sink, when one is attached."""
        if self.events is None:
            return None
        from .events import MemorySink

        for sink in self.events.sinks():
            if isinstance(sink, MemorySink):
                return sink
        return None

    def __repr__(self) -> str:
        events = self.events
        return (
            f"Instrumentation(enabled={self.enabled}, "
            f"metrics={_size(self.registry)}, "
            f"events={0 if events is None else events.events_emitted})"
        )


def _size(component: Optional[Any]) -> int:
    """``len`` of a live component; an absent one holds nothing."""
    return 0 if component is None else len(component)


#: The disabled default: every component slot holds ``None``.
NULL_INSTRUMENTATION = Instrumentation()


def enabled_instrumentation(
    events_path: Optional[Any] = None,
    memory_events: bool = True,
    max_memory_events: Optional[int] = 100_000,
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
    return Instrumentation(
        registry=MetricsRegistry(),
        events=events,
        recorder=FlightRecorder(events=events),
        tsdb=TimeSeriesDB(retention=tsdb_retention) if tsdb else None,
        alerts=AlertManager(rules=alert_rules) if alert_rules else None,
        profiler=(
            Profiler(mode=profiler, sample_every=profiler_sample_every)
            if profiler
            else None
        ),
    )


def resolve_instrumentation(
    obs: Optional[Instrumentation],
) -> Instrumentation:
    """What instrumented components call on their ``obs=None`` default."""
    return obs if obs is not None else NULL_INSTRUMENTATION
