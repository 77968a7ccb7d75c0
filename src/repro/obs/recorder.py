"""The per-agent flight recorder: alarms that explain themselves.

An alarm from a leaf-router CUSUM detector is only as useful as the
context around it — what did ``X_n`` and ``y_n`` look like in the
periods *before* the statistic crossed the threshold?  In production
nobody is tailing every agent's period stream; the
:class:`FlightRecorder` keeps a small ring buffer of full detector
state per agent (one snapshot per observation period) and, on an alarm
**transition**, captures the pre-alarm window.  Once a handful of
post-alarm periods have accrued (or the run ends) it emits a single
structured ``alarm_context`` event: the window before the alarm, the
alarm period itself, and the periods after — everything forensics
needs, attached to the alarm instead of buried in a 100k-line JSONL.

Snapshots are plain dicts so they serialize straight into the event
log.  The recorder is also the live *who-is-alarming* source for the
``/healthz`` and ``/fleet`` endpoints (:mod:`repro.obs.server`): each
tape folds its snapshots into an
:class:`~repro.obs.runtime.AgentSummary`, the same fold the detector
and an event-log replay keep, and :meth:`status` reports its rows;
:attr:`down` names the agents a supervisor marked crashed.

Cost model: one ``dict`` copy per observation period (t0 = 20 s per
agent), nothing per packet — well inside the obs layer's overhead
budget (``benchmarks/test_obs_overhead.py`` measures the enabled
recorder alongside the null-instrumentation gate).
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Any, Deque, Dict, List, Optional, Sequence

from .runtime import AgentSummary, period_of

__all__ = ["FlightRecorder"]

Snapshot = Dict[str, Any]

#: How many emitted contexts the recorder itself retains (for the
#: server and for runs without an event log).
_CONTEXT_RETENTION = 64


class _Tape:
    """One agent's ring buffer, its pending alarm context and its
    running summary."""

    __slots__ = ("ring", "pending", "summary")

    def __init__(self, capacity: int) -> None:
        self.ring: Deque[Snapshot] = deque(maxlen=capacity)
        self.pending: Optional[Dict[str, Any]] = None
        self.summary = AgentSummary()


class FlightRecorder:
    """Ring-buffer detector-state recorder with alarm-context capture.

    Parameters
    ----------
    capacity:
        Snapshots retained per agent — the maximum pre-alarm window an
        ``alarm_context`` can carry.
    post_alarm_periods:
        Periods recorded *after* an alarm transition before its context
        event is emitted.  A context whose run ends early is emitted
        with whatever post-alarm periods exist by :meth:`flush`.
    events:
        Optional event log (:class:`~repro.obs.events.EventLog`) the
        ``alarm_context`` events are emitted to.  Without one the
        contexts are still retained on :attr:`contexts`.
    """

    def __init__(
        self,
        capacity: int = 120,
        post_alarm_periods: int = 5,
        events: Optional[Any] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if post_alarm_periods < 0:
            raise ValueError(
                f"post_alarm_periods must be >= 0: {post_alarm_periods}"
            )
        self.capacity = capacity
        self.post_alarm_periods = post_alarm_periods
        self._events = events
        self._tapes: Dict[str, _Tape] = {}
        #: Agents known to be down (:meth:`set_down`): their tapes hold
        #: their last period, but no period is coming.  Replaced whole,
        #: so a server thread reads a consistent set.
        self.down: AbstractSet[str] = frozenset()
        self.contexts: Deque[Dict[str, Any]] = deque(maxlen=_CONTEXT_RETENTION)
        self.contexts_emitted = 0

    # ------------------------------------------------------------------
    def bind_events(self, events: Any) -> None:
        """Late wiring: attach the event log alarm contexts emit to."""
        self._events = events

    def record(
        self,
        agent: str,
        snapshot: Snapshot,
        period: Optional[Sequence[Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Record one observation period's detector state for *agent*.

        *snapshot* must carry at least ``alarm`` (bool) and
        ``period_index``; the detector passes its full trajectory point
        (counts, K̄, X_n, y_n, threshold) and, as *period*, the
        ``DetectionRecord`` that point was taken from, which the tape's
        summary folds as it is.  Without *period* the summary folds
        :func:`~repro.obs.runtime.period_of` the snapshot.  Returns the
        ``alarm_context`` payload when this period completed one, else
        None.
        """
        tape = self._tapes.get(agent)
        if tape is None:
            tape = self._tapes[agent] = _Tape(self.capacity)
        summary = tape.summary
        prev_alarm = summary.alarm
        summary.fold(period if period is not None else period_of(snapshot))
        alarm = summary.alarm

        emitted: Optional[Dict[str, Any]] = None
        if alarm and not prev_alarm:
            # A new alarm while a previous context is still collecting
            # post-alarm periods: close the old one out first so every
            # transition yields exactly one context.
            if tape.pending is not None:
                self._emit(agent, tape)
            tape.pending = {
                "alarm_index": summary.alarms,
                "alarm_snapshot": snapshot,
                "pre_periods": list(tape.ring),
                "post_periods": [],
            }
        elif tape.pending is not None:
            tape.pending["post_periods"].append(snapshot)

        if (
            tape.pending is not None
            and len(tape.pending["post_periods"]) >= self.post_alarm_periods
        ):
            emitted = self._emit(agent, tape)

        tape.ring.append(snapshot)
        return emitted

    def _emit(self, agent: str, tape: _Tape) -> Dict[str, Any]:
        pending = tape.pending
        assert pending is not None
        tape.pending = None
        alarm_snapshot = pending["alarm_snapshot"]
        context = {
            "agent": agent,
            "alarm_index": pending["alarm_index"],
            "alarm_period": alarm_snapshot.get("period_index"),
            "alarm_time": alarm_snapshot.get("end_time"),
            "statistic": alarm_snapshot.get("statistic"),
            "threshold": alarm_snapshot.get("threshold"),
            "pre_count": len(pending["pre_periods"]),
            "post_count": len(pending["post_periods"]),
            "capacity": self.capacity,
            "pre_periods": pending["pre_periods"],
            "alarm_snapshot": alarm_snapshot,
            "post_periods": pending["post_periods"],
        }
        self.contexts.append(context)
        self.contexts_emitted += 1
        if self._events is not None:
            self._events.emit("alarm_context", **context)
        return context

    def set_down(self, agent: str, down: bool = True) -> None:
        """Mark *agent* down (its process crashed) or, with
        ``down=False``, back up — the liveness the ``/healthz`` quorum
        and the ``/fleet`` rollup read beside the tapes."""
        self.down = self.down | {agent} if down else self.down - {agent}

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Emit every context still waiting on post-alarm periods (end
        of run); returns the number emitted."""
        emitted = 0
        for agent, tape in self._tapes.items():
            if tape.pending is not None:
                self._emit(agent, tape)
                emitted += 1
        return emitted

    # ------------------------------------------------------------------
    def window(self, agent: str) -> List[Snapshot]:
        """The agent's current ring contents, oldest first."""
        tape = self._tapes.get(agent)
        return list(tape.ring) if tape is not None else []

    def summaries(self) -> Dict[str, AgentSummary]:
        """Each agent's running summary, by name — the ``/fleet``
        rollup's source."""
        return {
            agent: tape.summary for agent, tape in sorted(self._tapes.items())
        }

    def status(self) -> Dict[str, Dict[str, Any]]:
        """Live per-agent state for health endpoints and summaries."""
        return {
            agent: tape.summary.status_row()
            for agent, tape in sorted(self._tapes.items())
        }

    @property
    def agents(self) -> List[str]:
        return sorted(self._tapes)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(agents={len(self._tapes)}, "
            f"capacity={self.capacity}, "
            f"contexts_emitted={self.contexts_emitted})"
        )
