"""Declarative alerting over the telemetry store: watch the watchers.

A SYN-dog fleet is itself a monitoring system, and production
monitoring systems page *about themselves*: event loss creeping up,
periods degrading, a CUSUM statistic hovering just under the threshold
without ever crossing it.  This module evaluates declarative rules —
PromQL-lite expressions from :mod:`repro.obs.tsdb` plus a ``for``
persistence requirement — against the time-series store, with the
standard three-phase lifecycle:

``inactive → pending → firing → resolved``
    A rule whose expression returns a non-empty vector becomes
    *pending*; after ``for_periods`` consecutive true evaluations it
    *fires* (emitting an ``alert`` event into the JSONL stream and
    capturing flight-recorder context when one is bound); when the
    expression goes false a firing alert *resolves* and a pending one
    is *cancelled*.  End-of-stream :meth:`AlertManager.close` resolves
    anything still firing at the final watermark — a replayed finite
    trace has no "still firing" state, only a history of transitions.

Two evaluation modes share the same state machine:

* **live** — the detector calls :meth:`AlertManager.evaluate` once per
  observation period (monotone watermark, duplicate times ignored).
  This is the operational view the ``/alerts`` endpoint serves.
* **replay** — :func:`replay_rules` walks every distinct sample time
  of a (possibly worker-merged) TSDB in order.  Because feed samples
  carry only logical time, a replay over the merged store is
  byte-identical for every ``--workers N`` — the canonical alerts
  document the chaos CLI writes and CI diffs.

Builtin rules (:func:`builtin_rules`) cover the failure modes earlier
PRs made observable: event drops, degraded periods, worker crashes and
the near-threshold CUSUM watermark.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (
    Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from .tsdb import TimeSeriesDB, parse_query

__all__ = [
    "AlertRule",
    "AlertManager",
    "builtin_rules",
    "fleet_rules",
    "rules_from_dicts",
    "rules_from_file",
    "replay_rules",
]

#: Flight-recorder snapshots included per agent in a firing context.
_CONTEXT_WINDOW_TAIL = 8

#: Firing contexts the manager retains for the live server.
_CONTEXT_RETENTION = 64


class _RuleState:
    """One rule's lifecycle state: ``state`` is ``inactive``,
    ``pending`` or ``firing`` (the alerts document's ``states`` entry,
    built by :meth:`to_dict`)."""

    __slots__ = (
        "state", "since", "consecutive", "last_value", "fired_count",
        "resolved_count",
    )

    def __init__(self) -> None:
        self.state = "inactive"
        self.since: Optional[float] = None
        self.consecutive = 0
        self.last_value: Optional[float] = None
        self.fired_count = 0
        self.resolved_count = 0

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class AlertRule:
    """One declarative rule: an expression plus persistence and routing.

    Parameters
    ----------
    name:
        Unique rule identifier (appears in transitions and events).
    expr:
        A PromQL-lite expression (see :mod:`repro.obs.tsdb`); the rule
        is *true* at time t when the expression's filtered vector is
        non-empty.
    for_periods:
        Consecutive true evaluations required before the rule fires
        (``1`` fires immediately; mirrors PromQL's ``for:`` but counted
        in evaluation watermarks — i.e. observation periods — rather
        than wall time, which a deterministic replay does not have).
    severity:
        Free-form routing hint (``warn`` / ``page``).
    description:
        Human-readable annotation carried into the alerts document.

    The expression is compiled once, here (a malformed one raises
    :class:`~repro.obs.tsdb.QueryError`), and kept as ``query``: every
    evaluation reuses it instead of re-parsing the text.
    """

    __slots__ = (
        "name", "expr", "query", "for_periods", "severity", "description",
    )

    def __init__(
        self,
        name: str,
        expr: str,
        for_periods: int = 1,
        severity: str = "warn",
        description: str = "",
    ) -> None:
        if not name:
            raise ValueError("alert rule needs a name")
        if for_periods < 1:
            raise ValueError(
                f"for_periods must be >= 1 for rule {name!r}: {for_periods}"
            )
        self.name = name
        self.expr = expr
        self.query = parse_query(expr)
        self.for_periods = int(for_periods)
        self.severity = severity
        self.description = description

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "expr": self.expr,
            "for_periods": self.for_periods,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "AlertRule":
        return cls(
            name=raw["name"],
            expr=raw["expr"],
            for_periods=int(raw.get("for_periods", raw.get("for", 1))),
            severity=raw.get("severity", "warn"),
            description=raw.get("description", ""),
        )

    def __repr__(self) -> str:
        return f"AlertRule({self.name!r}, {self.expr!r}, for={self.for_periods})"


class AlertManager:
    """Evaluates rules against a TSDB and tracks alert lifecycles.

    The manager is deterministic by construction: state depends only
    on the rule list and the sequence of evaluated watermarks, never on
    wall time.  Transitions are recorded as plain dicts
    ``{"rule", "to", "t", "value"}`` — the full auditable history the
    ``/alerts`` endpoint and ``repro alerts`` serve.

    :meth:`evaluate` reads only *live* rules: those whose selector
    matches a series in the store, plus any not inactive.  An inactive
    rule over no series would evaluate to an empty vector and stay
    inactive, so skipping it changes nothing.  The live list is rebuilt
    whenever the store has gained a series since the last pass, so a
    rule goes live in the period its first series appears.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        tsdb: Optional[Any] = None,
        events: Optional[Any] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        self._rules: List[AlertRule] = []
        self._states: Dict[str, _RuleState] = {}
        #: ``(rule, state)`` per live rule, valid while the store holds
        #: ``_live_series`` series.
        self._live: List[Tuple[AlertRule, _RuleState]] = []
        self._live_series = -1
        self._tsdb = tsdb
        self._events = events
        self._recorder = recorder
        self._last_t: Optional[float] = None
        self.closed = False
        self.evaluations = 0
        self.transitions: List[Dict[str, Any]] = []
        self.contexts: Deque[Dict[str, Any]] = deque(maxlen=_CONTEXT_RETENTION)
        self._subscribers: List[Any] = []
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    def bind(
        self,
        tsdb: Optional[Any] = None,
        events: Optional[Any] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        """Late wiring by :class:`~repro.obs.runtime.Instrumentation`."""
        if tsdb is not None:
            self._tsdb = tsdb
            self._live_series = -1
        if events is not None:
            self._events = events
        if recorder is not None:
            self._recorder = recorder

    def subscribe(self, callback: Any) -> None:
        """Register ``callback(transition_dict)``, invoked synchronously
        on every lifecycle transition (:meth:`evaluate` and
        :meth:`close` alike) — the hook a
        :class:`~repro.defense.response.ResponseEngine` attaches to.
        Callbacks must not re-enter the manager."""
        if not callable(callback):
            raise TypeError(f"subscriber must be callable: {callback!r}")
        self._subscribers.append(callback)

    def add_rule(self, rule: AlertRule) -> None:
        if rule.name in self._states:
            raise ValueError(f"duplicate alert rule name: {rule.name!r}")
        self._rules.append(rule)
        self._states[rule.name] = _RuleState()
        self._live_series = -1

    @property
    def rules(self) -> List[AlertRule]:
        return list(self._rules)

    def firing(self) -> List[str]:
        """Names of currently firing rules, sorted."""
        return sorted(
            name
            for name, state in self._states.items()
            if state.state == "firing"
        )

    def pending(self) -> List[str]:
        return sorted(
            name
            for name, state in self._states.items()
            if state.state == "pending"
        )

    # ------------------------------------------------------------------
    def evaluate(self, t: float) -> List[Dict[str, Any]]:
        """Evaluate every rule at watermark *t*; returns the transitions
        this step produced.  Out-of-order or duplicate watermarks are
        ignored (periods from a second grid item replaying earlier
        logical times must not rewind alert state)."""
        if self.closed or self._tsdb is None:
            return []
        if self._last_t is not None and t <= self._last_t:
            return []
        self._last_t = t
        self.evaluations += 1

        produced: List[Dict[str, Any]] = []
        tsdb = self._tsdb
        if len(tsdb) != self._live_series:
            self._bind_live(tsdb)
        query = tsdb.query
        for rule, state in self._live:
            value = query(rule.query, t, True)
            if value is not None:
                state.consecutive += 1
                state.last_value = value
                if state.state == "inactive":
                    state.since = t
                    if state.consecutive >= rule.for_periods:
                        produced.append(self._transition(rule, "firing", t, value))
                    else:
                        state.state = "pending"
                        produced.append(self._transition(rule, "pending", t, value))
                elif (
                    state.state == "pending"
                    and state.consecutive >= rule.for_periods
                ):
                    produced.append(self._transition(rule, "firing", t, value))
            else:
                state.consecutive = 0
                if state.state == "pending":
                    produced.append(self._transition(rule, "cancelled", t, None))
                elif state.state == "firing":
                    produced.append(self._transition(rule, "resolved", t, None))
        return produced

    def _bind_live(self, tsdb: TimeSeriesDB) -> None:
        """Rebuild the live-rule list against the store's current
        series (rule order kept, so transitions keep their order)."""
        self._live_series = len(tsdb)
        self._live = [
            (rule, self._states[rule.name])
            for rule in self._rules
            if tsdb.select(rule.query)
            or self._states[rule.name].state != "inactive"
        ]

    def close(self, t: Optional[float] = None) -> List[Dict[str, Any]]:
        """End of stream: resolve firing alerts, cancel pending ones.

        A finite replayed trace ends; alerts that never went false
        (e.g. ``events_dropping`` on a sink that, once full, drops
        forever) are closed out at the final watermark so the
        transition history always terminates.  Idempotent.
        """
        if self.closed:
            return []
        self.closed = True
        if t is None:
            t = self._last_t if self._last_t is not None else 0.0
        produced: List[Dict[str, Any]] = []
        for rule in self._rules:
            state = self._states[rule.name]
            if state.state == "firing":
                produced.append(self._transition(rule, "resolved", t, None))
            elif state.state == "pending":
                produced.append(self._transition(rule, "cancelled", t, None))
        return produced

    # ------------------------------------------------------------------
    def _transition(
        self, rule: AlertRule, to: str, t: float, value: Optional[float]
    ) -> Dict[str, Any]:
        state = self._states[rule.name]
        state.state = "firing" if to == "firing" else (
            "pending" if to == "pending" else "inactive"
        )
        if to == "firing":
            state.fired_count += 1
        elif to == "resolved":
            state.resolved_count += 1
        if to in ("resolved", "cancelled"):
            state.since = None
            state.consecutive = 0
        record = {
            "rule": rule.name,
            "severity": rule.severity,
            "to": to,
            "t": t,
            "value": value,
        }
        self.transitions.append(record)
        if self._events is not None:
            self._events.emit(
                "alert",
                rule=rule.name,
                severity=rule.severity,
                to=to,
                time=t,
                value=value,
                expr=rule.expr,
            )
        if to == "firing":
            self._capture_context(rule, t, value)
        for callback in self._subscribers:
            callback(record)
        return record

    def _capture_context(
        self, rule: AlertRule, t: float, value: Optional[float]
    ) -> None:
        """Freeze flight-recorder state the moment a rule fires — the
        "what was every detector doing" snapshot an operator wants
        attached to the page."""
        recorder = self._recorder
        if recorder is None:
            return
        context = {
            "rule": rule.name,
            "t": t,
            "value": value,
            "status": recorder.status(),
            "windows": {
                agent: recorder.window(agent)[-_CONTEXT_WINDOW_TAIL:]
                for agent in recorder.agents
            },
        }
        self.contexts.append(context)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The deterministic alerts document (``/alerts``,
        ``repro alerts --json``, the chaos ``--alerts-out`` artifact).

        Contains rules, per-rule lifecycle state and the full
        transition history; excludes live-only context captures so a
        replayed document matches a live one sample-for-sample.
        """
        return {
            "enabled": True,
            "closed": self.closed,
            "evaluations": self.evaluations,
            "rules": [rule.to_dict() for rule in self._rules],
            "states": {
                name: self._states[name].to_dict()
                for name in sorted(self._states)
            },
            "firing": self.firing(),
            "pending": self.pending(),
            "transitions": list(self.transitions),
        }

    def __repr__(self) -> str:
        return (
            f"AlertManager(rules={len(self._rules)}, "
            f"firing={self.firing()}, transitions={len(self.transitions)})"
        )


# ----------------------------------------------------------------------
# Rule construction helpers
# ----------------------------------------------------------------------
#: The near-threshold rules page when y_n's recent maximum exceeds this
#: fraction of the alarm threshold N.
_WATERMARK = 0.8

#: The look-back window of the CUSUM, degraded-period and fleet rules.
_WINDOW = "5m"


def builtin_rules(
    threshold: float = 1.05, slo: bool = False
) -> List[AlertRule]:
    """The standard watch-the-watchers rule set.

    ``threshold`` is the detector's CUSUM threshold N (pass
    ``parameters.threshold``); the near-threshold rule pages when y_n's
    recent maximum exceeds ``0.8 * N`` — i.e. *before* an alarm, while
    there is still time to look.

    The fleet-level rules from :func:`fleet_rules` are always part of
    the set; they watch the ``fleet_*`` rollup series a
    :class:`~repro.router.fleet.Federation` emits and stay inactive on
    single-agent runs, where those series never exist.

    ``slo`` appends the budget burn / exhaustion rules from
    :func:`repro.obs.slo.slo_rules` over the builtin objectives.  Like
    the fleet rules they page off indicator series
    (``slo_burning{slo=...}`` / ``slo_budget_consumed{slo=...}``) and
    stay inactive until an :class:`~repro.obs.slo.SLOEngine` records
    them — the soak campaign's standing configuration.
    """
    rules = _builtin_core_rules(threshold) + fleet_rules(threshold)
    if slo:
        # Local import: repro.obs.slo imports AlertRule from this module.
        from .slo import slo_rules

        rules.extend(slo_rules())
    return rules


#: The fleet rules page below this fraction of live members, above this
#: fraction of alarming ones.
_MIN_QUORUM = 0.9
_MAX_ALARM_FRACTION = 0.5


def fleet_rules(threshold: float = 1.05) -> List[AlertRule]:
    """Fleet-level rules over the rollup series
    (:mod:`repro.obs.rollup` via :class:`~repro.router.fleet.Federation`).

    These watch the *reduction*, not the agents: evaluating them is
    O(1) in fleet size because the federation already folded the fleet
    into the ``fleet_*`` samples.  ``fleet_cusum_p99_near_threshold``
    is the fleet analogue of ``cusum_near_threshold`` — it pages when
    the 99th-percentile CUSUM across agents approaches the alarm
    threshold N, i.e. when a broad slice of the fleet (not one noisy
    agent) is trending toward alarm.  Each fires on its first true
    evaluation.
    """
    window = _WINDOW
    return [
        AlertRule(
            name="fleet_quorum_low",
            expr=f"last_over_time(fleet_quorum[{window}]) < {_MIN_QUORUM!r}",
            for_periods=1,
            severity="page",
            description=(
                f"less than {_MIN_QUORUM * 100:.0f}% of federation members "
                "are alive — absence of alarms is not evidence of health"
            ),
        ),
        AlertRule(
            name="fleet_alarm_fraction_high",
            expr=(
                f"last_over_time(fleet_alarm_fraction[{window}]) > "
                f"{_MAX_ALARM_FRACTION!r}"
            ),
            for_periods=1,
            severity="page",
            description=(
                f"more than {_MAX_ALARM_FRACTION * 100:.0f}% of the fleet "
                "is alarming at once — a coordinated flood or a "
                "systematic false-positive source"
            ),
        ),
        AlertRule(
            name="fleet_cusum_p99_near_threshold",
            expr=(
                f"max_over_time(fleet_cusum_p99[{window}]) > "
                f"{_WATERMARK!r} * {threshold!r}"
            ),
            for_periods=1,
            severity="warn",
            description=(
                "the fleet's 99th-percentile CUSUM is within "
                f"{(1 - _WATERMARK) * 100:.0f}% of the alarm threshold — "
                "a fleet-wide drift, not a single hot agent"
            ),
        ),
    ]


def _builtin_core_rules(threshold: float) -> List[AlertRule]:
    window = _WINDOW
    return [
        AlertRule(
            name="cusum_near_threshold",
            expr=(
                f"max_over_time(syndog_cusum[{window}]) > "
                f"{_WATERMARK!r} * {threshold!r}"
            ),
            for_periods=2,
            severity="warn",
            description=(
                "CUSUM statistic y_n has been within "
                f"{(1 - _WATERMARK) * 100:.0f}% of the alarm threshold "
                f"over the last {window}"
            ),
        ),
        AlertRule(
            name="events_dropping",
            expr="rate(obs_events_dropped_total[2m]) > 0",
            for_periods=1,
            severity="warn",
            description=(
                "bounded event sinks are dropping events — telemetry "
                "history is incomplete from here on"
            ),
        ),
        AlertRule(
            name="degraded_periods",
            expr=f"sum_over_time(syndog_degraded[{window}]) > 0",
            for_periods=1,
            severity="warn",
            description=(
                "the detector interpolated missing observation periods "
                f"within the last {window}"
            ),
        ),
        AlertRule(
            name="worker_crashes",
            expr="increase(federation_member_failures_total[10m]) > 0",
            for_periods=1,
            severity="page",
            description="federation members failed and were restarted",
        ),
        AlertRule(
            name="worker_retries",
            expr="last_over_time(parallel_worker_retries_total[10m]) > 0",
            for_periods=1,
            severity="page",
            description=(
                "the sharded execution engine rescheduled crashed workers"
            ),
        ),
    ]


def rules_from_dicts(raw: Iterable[Dict[str, Any]]) -> List[AlertRule]:
    return [AlertRule.from_dict(entry) for entry in raw]


def rules_from_file(path: Union[str, Path]) -> List[AlertRule]:
    """Load rules from a JSON file: either a bare list of rule dicts or
    ``{"rules": [...]}``."""
    with open(path, "r", encoding="utf-8") as stream:
        document = json.load(stream)
    if isinstance(document, dict):
        document = document.get("rules", [])
    if not isinstance(document, list):
        raise ValueError(f"rules file {path} must hold a list of rules")
    return rules_from_dicts(document)


def replay_rules(
    rules: Sequence[AlertRule],
    tsdb: Union[TimeSeriesDB, Any],
    recorder: Optional[Any] = None,
) -> AlertManager:
    """Deterministically re-evaluate *rules* over a TSDB's full history.

    Walks every distinct sample time ascending, then closes the manager
    at the final watermark.  This is the canonical alerts document: the
    same merged store yields the same bytes whether the samples came
    from one process or N workers.
    """
    manager = AlertManager(rules=rules, tsdb=tsdb, recorder=recorder)
    for t in tsdb.watermarks():
        manager.evaluate(t)
    manager.close()
    return manager
