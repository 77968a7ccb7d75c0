"""Closed-loop response: from firing alert to applied mitigation — and
back out again.

SYN-dog's contribution is *detection at the source*; the paper's
Section 4.2.3 sketches what a deployment does next: activate ingress
filtering, localize the flooding host, notify the victim.  This module
builds that missing half as a small, auditable control loop:

* a **playbook** — a declarative document (JSON or a YAML-lite subset)
  binding alert names to mitigation actions with per-action TTLs,
  retry budgets, and collateral-damage caps;
* a **response engine** — subscribes to
  :meth:`repro.obs.alerts.AlertManager.subscribe` transitions, applies
  the bound actions through an *actuator*, retries failures with
  backoff, rolls actions back when their alert resolves or their TTL
  expires, damps flapping with a cooldown, and aborts any action whose
  measured collateral (fraction of legitimate flows it drops) exceeds
  the playbook's cap;
* **actuators** — the only components that touch the simulated network:
  :class:`VictimActuator` installs blocklists / rate limiters /
  SYN-cookie or SYN-proxy server swaps inside a
  :class:`~repro.tcpsim.network.VictimNetwork`;
  :class:`RouterActuator` flips a leaf router's ingress filter to
  enforce mode; :class:`FlakyActuator` wraps either to inject
  deterministic apply failures for the fault benches.

Every state transition is appended to an in-memory **timeline** *and*
emitted as a ``response_action`` / ``response_aborted`` event with the
identical field set, so the mitigation timeline can be rebuilt offline
from an events JSONL alone (:func:`timeline_from_events`) and
byte-compared against the live run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Address, IPv4Network
from ..packet.packet import Packet
from .ratelimit import TokenBucket

__all__ = [
    "ActionFailure",
    "ActionSpec",
    "PlaybookRule",
    "Playbook",
    "ResponseEngine",
    "VictimActuator",
    "RouterActuator",
    "FlakyActuator",
    "parse_yaml_lite",
    "timeline_from_events",
]

#: The canonical field set of one timeline entry.  Shared by the live
#: engine and the offline replay so both produce byte-identical
#: documents.
TIMELINE_FIELDS = (
    "t",
    "alert",
    "kind",
    "outcome",
    "attempt",
    "collateral",
    "detail",
)

#: Timeline outcomes, for reference: ``applied``, ``retry`` (failed,
#: backoff scheduled), ``failed`` (retry budget exhausted),
#: ``suppressed`` (cooldown), ``rolled_back`` (alert resolved or engine
#: shutdown), ``expired`` (TTL), ``aborted`` (collateral cap),
#: ``cancelled`` (pending retry abandoned on resolution).
TIMELINE_EVENT_KINDS = ("response_action", "response_aborted")


class ActionFailure(RuntimeError):
    """An actuator could not apply (or revert) an action.

    The engine treats apply-failures as retryable up to the action's
    ``max_retries`` budget; revert-failures are recorded in the
    timeline's ``detail`` field but never retried (the action is
    considered off either way — a stuck revert must not wedge the
    engine)."""


# ----------------------------------------------------------------------
# Playbook documents
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ActionSpec:
    """One mitigation action bound to an alert.

    Parameters
    ----------
    kind:
        Actuator verb, e.g. ``block_prefixes``, ``rate_limit``,
        ``syn_cookies``, ``syn_proxy``, ``synkill``, ``ingress_filter``.
        Unknown kinds are not rejected here — the actuator raises
        :class:`ActionFailure`, which surfaces as ``failed`` in the
        timeline after retries.
    params:
        Kind-specific parameters (frozen as a sorted tuple internally so
        the spec stays hashable and picklable).
    ttl_periods:
        Automatic rollback after this many engine steps (observation
        periods); ``None`` = hold until the alert resolves.
    max_retries:
        Apply attempts beyond the first before giving up.
    backoff_periods:
        Base retry delay, in engine steps; attempt *n* waits
        ``backoff_periods * n`` steps (linear backoff).
    max_collateral_fraction:
        Safety valve: when the actuator reports a larger fraction of
        legitimate flows dropped by this action, the engine backs it
        out and emits ``response_aborted``.  ``None`` disables the
        valve.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    ttl_periods: Optional[int] = None
    max_retries: int = 0
    backoff_periods: int = 1
    max_collateral_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("action kind cannot be empty")
        if isinstance(self.params, dict):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        if self.ttl_periods is not None and self.ttl_periods < 1:
            raise ValueError(f"ttl_periods must be >= 1: {self.ttl_periods}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative: {self.max_retries}")
        if self.backoff_periods < 0:
            raise ValueError(
                f"backoff_periods cannot be negative: {self.backoff_periods}"
            )
        if self.max_collateral_fraction is not None and not (
            0.0 <= self.max_collateral_fraction <= 1.0
        ):
            raise ValueError(
                "max_collateral_fraction must lie in [0,1]: "
                f"{self.max_collateral_fraction}"
            )

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ActionSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"action must be a mapping: {doc!r}")
        unknown = set(doc) - {
            "kind",
            "params",
            "ttl_periods",
            "max_retries",
            "backoff_periods",
            "max_collateral_fraction",
        }
        if unknown:
            raise ValueError(f"unknown action fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError(f"action missing 'kind': {doc!r}")
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError(f"action params must be a mapping: {params!r}")
        fraction = doc.get("max_collateral_fraction")
        return cls(
            kind=str(doc["kind"]),
            params=tuple(sorted(params.items())),
            ttl_periods=(
                None
                if doc.get("ttl_periods") is None
                else int(doc["ttl_periods"])
            ),
            max_retries=int(doc.get("max_retries", 0)),
            backoff_periods=int(doc.get("backoff_periods", 1)),
            max_collateral_fraction=(
                None if fraction is None else float(fraction)
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "ttl_periods": self.ttl_periods,
            "max_retries": self.max_retries,
            "backoff_periods": self.backoff_periods,
            "max_collateral_fraction": self.max_collateral_fraction,
        }


@dataclass(frozen=True)
class PlaybookRule:
    """Binds one alert name to the actions fired on its transitions."""

    alert: str
    actions: Tuple[ActionSpec, ...]

    def __post_init__(self) -> None:
        if not self.alert:
            raise ValueError("rule alert name cannot be empty")
        if not self.actions:
            raise ValueError(f"rule {self.alert!r} has no actions")

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "PlaybookRule":
        if not isinstance(doc, dict):
            raise ValueError(f"rule must be a mapping: {doc!r}")
        actions = doc.get("actions")
        if not isinstance(actions, list):
            raise ValueError(f"rule actions must be a list: {doc!r}")
        return cls(
            alert=str(doc.get("alert", "")),
            actions=tuple(ActionSpec.from_dict(a) for a in actions),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alert": self.alert,
            "actions": [a.to_dict() for a in self.actions],
        }


@dataclass(frozen=True)
class Playbook:
    """The full response policy: rules plus global flap damping."""

    name: str
    rules: Tuple[PlaybookRule, ...]
    cooldown_periods: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("playbook name cannot be empty")
        if self.cooldown_periods < 0:
            raise ValueError(
                f"cooldown_periods cannot be negative: {self.cooldown_periods}"
            )
        seen = set()
        for rule in self.rules:
            if rule.alert in seen:
                raise ValueError(f"duplicate rule for alert {rule.alert!r}")
            seen.add(rule.alert)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Playbook":
        if not isinstance(doc, dict):
            raise ValueError(f"playbook must be a mapping: {doc!r}")
        unknown = set(doc) - {"name", "cooldown_periods", "rules"}
        if unknown:
            raise ValueError(f"unknown playbook fields: {sorted(unknown)}")
        rules = doc.get("rules")
        if not isinstance(rules, list) or not rules:
            raise ValueError("playbook needs a non-empty 'rules' list")
        return cls(
            name=str(doc.get("name", "")),
            cooldown_periods=int(doc.get("cooldown_periods", 2)),
            rules=tuple(PlaybookRule.from_dict(r) for r in rules),
        )

    @classmethod
    def from_text(cls, text: str) -> "Playbook":
        """Parse a playbook document.  Sniffs the format: documents whose
        first non-space character is ``{`` are JSON; anything else goes
        through the YAML-lite subset parser."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_dict(json.loads(text))
        return cls.from_dict(parse_yaml_lite(text))

    @classmethod
    def from_file(cls, path: str) -> "Playbook":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cooldown_periods": self.cooldown_periods,
            "rules": [r.to_dict() for r in self.rules],
        }


# ----------------------------------------------------------------------
# YAML-lite
# ----------------------------------------------------------------------
def parse_yaml_lite(text: str) -> Any:
    """Parse the YAML subset playbooks are written in — no external
    dependency, no surprises.

    Supported: mappings (``key: value`` / ``key:`` + indented block),
    lists (``- scalar`` / ``- key: value`` starting an inline mapping
    whose remaining keys sit two columns deeper), scalars (``null``,
    booleans, ints, floats, quoted strings, bare strings, inline JSON
    ``[...]``/``{...}``), and ``#`` comments.  Indentation is spaces
    only; tabs are rejected.
    """
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if " #" in raw and '"' not in raw and "'" not in raw:
            raw = raw.split(" #", 1)[0]
            if not raw.strip():
                continue
        indent = len(raw) - len(raw.lstrip(" \t"))
        if "\t" in raw[:indent]:
            raise ValueError("YAML-lite: tabs not allowed in indentation")
        lines.append((indent, raw.strip()))
    if not lines:
        raise ValueError("YAML-lite: empty document")
    value, pos = _parse_block(lines, 0, lines[0][0])
    if pos != len(lines):
        raise ValueError(
            f"YAML-lite: unparsed trailing content: {lines[pos][1]!r}"
        )
    return value


def _parse_block(
    lines: List[Tuple[int, str]], pos: int, indent: int
) -> Tuple[Any, int]:
    if lines[pos][1].startswith("- ") or lines[pos][1] == "-":
        return _parse_list(lines, pos, indent)
    return _parse_mapping(lines, pos, indent)


def _parse_child_block(
    lines: List[Tuple[int, str]], pos: int, parent_indent: int
) -> Tuple[Any, int]:
    """Parse the block indented deeper than *parent_indent* (the value of
    a ``key:`` line); an absent block means ``None``."""
    if pos >= len(lines) or lines[pos][0] <= parent_indent:
        return None, pos
    return _parse_block(lines, pos, lines[pos][0])


def _parse_mapping(
    lines: List[Tuple[int, str]], pos: int, indent: int
) -> Tuple[Dict[str, Any], int]:
    result: Dict[str, Any] = {}
    while pos < len(lines) and lines[pos][0] == indent:
        content = lines[pos][1]
        if content.startswith("- ") or content == "-":
            break
        key, sep, rest = content.partition(":")
        if not sep:
            raise ValueError(f"YAML-lite: expected 'key: value': {content!r}")
        key = key.strip()
        if key in result:
            raise ValueError(f"YAML-lite: duplicate key {key!r}")
        rest = rest.strip()
        pos += 1
        if rest:
            result[key] = _parse_scalar(rest)
        else:
            result[key], pos = _parse_child_block(lines, pos, indent)
    if pos < len(lines) and lines[pos][0] > indent:
        raise ValueError(
            f"YAML-lite: unexpected indent at {lines[pos][1]!r}"
        )
    return result, pos


def _parse_list(
    lines: List[Tuple[int, str]], pos: int, indent: int
) -> Tuple[List[Any], int]:
    result: List[Any] = []
    while pos < len(lines) and lines[pos][0] == indent:
        content = lines[pos][1]
        if not (content.startswith("- ") or content == "-"):
            break
        inline = content[1:].strip()
        item_indent = indent + 2
        if not inline:
            value, pos = _parse_child_block(lines, pos + 1, indent)
            result.append(value)
            continue
        if inline[0] not in "\"'" and ":" in inline:
            # "- key: value" opens a mapping item; its remaining keys
            # continue at the column where "key" started.
            key, _, rest = inline.partition(":")
            mapping: Dict[str, Any] = {}
            rest = rest.strip()
            pos += 1
            if rest:
                mapping[key.strip()] = _parse_scalar(rest)
            else:
                mapping[key.strip()], pos = _parse_child_block(
                    lines, pos, item_indent
                )
            if pos < len(lines) and lines[pos][0] == item_indent:
                more, pos = _parse_mapping(lines, pos, item_indent)
                overlap = set(mapping) & set(more)
                if overlap:
                    raise ValueError(
                        f"YAML-lite: duplicate key {sorted(overlap)!r}"
                    )
                mapping.update(more)
            result.append(mapping)
        else:
            result.append(_parse_scalar(inline))
            pos += 1
    return result, pos


def _parse_scalar(text: str) -> Any:
    if text[0] in "\"'" and len(text) >= 2 and text[-1] == text[0]:
        if text[0] == '"':
            return json.loads(text)
        return text[1:-1]
    if text[0] in "[{":
        return json.loads(text)
    lowered = text.lower()
    if lowered in ("null", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class _ActiveAction:
    spec: ActionSpec
    alert: str
    applied_step: int


@dataclass
class _PendingRetry:
    spec: ActionSpec
    alert: str
    attempt: int  # the attempt number the retry will make (>= 2)
    due_step: int


ActionKey = Tuple[str, str]  # (alert, kind)


class ResponseEngine:
    """Turns alert transitions into bounded, reversible mitigations.

    Wire-up::

        engine = ResponseEngine(playbook, actuator, obs=obs)
        engine.attach(obs.alerts)          # subscribe to transitions
        ...
        engine.step(t)                     # once per observation period
        ...
        engine.finish(t)                   # drain + roll everything back

    ``step`` is the only place side effects happen: transitions arriving
    via the subscription are queued and processed on the next step, so
    the engine's behaviour is a deterministic function of the transition
    sequence and the step clock — which is what makes the mitigation
    timeline replayable and worker-count independent.
    """

    def __init__(
        self,
        playbook: Playbook,
        actuator: "Actuator",
        obs: Optional[Instrumentation] = None,
        name: str = "response",
    ) -> None:
        self.playbook = playbook
        self.actuator = actuator
        self.name = name
        self._rules: Dict[str, PlaybookRule] = {
            rule.alert: rule for rule in playbook.rules
        }
        self._queue: List[Dict[str, Any]] = []
        self._active: Dict[ActionKey, _ActiveAction] = {}
        self._retries: Dict[ActionKey, _PendingRetry] = {}
        self._deferred: Dict[ActionKey, Tuple[ActionSpec, str]] = {}
        self._cooldown_until: Dict[ActionKey, int] = {}
        self._alert_state: Dict[str, str] = {}
        self._step_index = 0
        self.timeline: List[Dict[str, Any]] = []
        self.aborted = 0
        self.peak_collateral = 0.0
        obs = resolve_instrumentation(obs)
        self._events = obs.events
        self._tsdb = obs.tsdb
        self._m_actions = (
            obs.registry.counter(
                "response_actions_total",
                "Response-engine action transitions by kind and outcome",
                ("kind", "outcome"),
            )
            if obs.registry is not None
            else None
        )

    # -- subscription --------------------------------------------------
    def attach(self, manager: Any) -> "ResponseEngine":
        """Subscribe to an :class:`~repro.obs.alerts.AlertManager`."""
        manager.subscribe(self.on_transition)
        return self

    def on_transition(self, record: Dict[str, Any]) -> None:
        """Alert-transition callback (also callable directly in tests
        and in offline replay drivers)."""
        rule = record.get("rule")
        to = record.get("to")
        if rule is None or to is None:
            return
        self._alert_state[rule] = to
        if rule in self._rules and to in ("firing", "resolved", "cancelled"):
            self._queue.append({"rule": rule, "to": to})

    # -- the step clock ------------------------------------------------
    def step(self, t: float) -> None:
        """Process one observation period ending at time *t*."""
        self._step_index += 1
        step = self._step_index

        # 1. Cooldowns that ran out while the alert kept firing: the
        #    deferred action finally applies (no new transition will
        #    arrive for an alert that never stopped firing).
        for key in sorted(self._deferred):
            spec, alert = self._deferred[key]
            if self._alert_state.get(alert) != "firing":
                del self._deferred[key]
            elif self._cooldown_until.get(key, 0) <= step:
                del self._deferred[key]
                self._attempt(key, spec, alert, t, attempt=1)

        # 2. Due retries.
        for key in sorted(self._retries):
            retry = self._retries[key]
            if retry.due_step <= step:
                del self._retries[key]
                self._attempt(key, retry.spec, retry.alert, t, retry.attempt)

        # 3. Queued alert transitions, in arrival order.
        queue, self._queue = self._queue, []
        for transition in queue:
            if transition["to"] == "firing":
                self._handle_firing(transition["rule"], t)
            else:
                self._handle_resolution(transition["rule"], t)

        # 4. TTL expiry.
        for key in sorted(self._active):
            active = self._active[key]
            ttl = active.spec.ttl_periods
            if ttl is not None and step - active.applied_step >= ttl:
                self._rollback(key, t, "expired", "ttl expired")

        # 5. Safety valve: measured collateral above the cap backs the
        #    action out — protecting the service from its own defense.
        for key in sorted(self._active):
            active = self._active[key]
            cap = active.spec.max_collateral_fraction
            if cap is None:
                continue
            fraction = self.actuator.collateral(active.spec)
            if fraction > cap:
                # The abort removes the action before the stage-6 sweep,
                # so fold its measurement into the peak here.
                self.peak_collateral = max(self.peak_collateral, fraction)
                self._rollback(
                    key,
                    t,
                    "aborted",
                    f"collateral {fraction:.6f} > cap {cap:.6f}",
                    collateral=fraction,
                )

        # 6. Health series for dashboards and the respond-smoke CI job.
        worst = 0.0
        for active in self._active.values():
            worst = max(worst, self.actuator.collateral(active.spec))
        self.peak_collateral = max(self.peak_collateral, worst)
        if self._tsdb is not None:
            self._tsdb.append(
                "response_active_actions", None, t, float(len(self._active))
            )
            self._tsdb.append("response_collateral_fraction", None, t, worst)

    def finish(self, t: float) -> None:
        """End of campaign: drain queued transitions, abandon pending
        retries, and roll back whatever is still active."""
        self.step(t)
        for key in sorted(self._retries):
            retry = self._retries.pop(key)
            self._record(
                t, retry.alert, key[1], "cancelled", retry.attempt, None,
                "engine shutdown",
            )
        self._deferred.clear()
        for key in sorted(self._active):
            self._rollback(key, t, "rolled_back", "engine shutdown")

    # -- transition handling -------------------------------------------
    def _handle_firing(self, alert: str, t: float) -> None:
        rule = self._rules[alert]
        for spec in rule.actions:
            key = (alert, spec.kind)
            if key in self._active or key in self._retries:
                continue
            if self._cooldown_until.get(key, 0) > self._step_index:
                self._record(
                    t, alert, spec.kind, "suppressed", 0, None, "cooldown"
                )
                self._deferred[key] = (spec, alert)
                continue
            self._attempt(key, spec, alert, t, attempt=1)

    def _handle_resolution(self, alert: str, t: float) -> None:
        for key in sorted(k for k in self._active if k[0] == alert):
            self._rollback(key, t, "rolled_back", "alert resolved")
        for key in sorted(k for k in self._retries if k[0] == alert):
            retry = self._retries.pop(key)
            self._record(
                t, alert, key[1], "cancelled", retry.attempt, None,
                "alert resolved",
            )
        for key in sorted(k for k in self._deferred if k[0] == alert):
            del self._deferred[key]

    def _attempt(
        self, key: ActionKey, spec: ActionSpec, alert: str, t: float, attempt: int
    ) -> None:
        try:
            self.actuator.apply(spec)
        except ActionFailure as exc:
            if attempt > spec.max_retries:
                self._record(
                    t, alert, spec.kind, "failed", attempt, None, str(exc)
                )
                self._cooldown_until[key] = (
                    self._step_index + self.playbook.cooldown_periods
                )
            else:
                due = self._step_index + max(
                    1, spec.backoff_periods * attempt
                )
                self._retries[key] = _PendingRetry(
                    spec=spec, alert=alert, attempt=attempt + 1, due_step=due
                )
                self._record(
                    t, alert, spec.kind, "retry", attempt, None, str(exc)
                )
        else:
            self._active[key] = _ActiveAction(
                spec=spec, alert=alert, applied_step=self._step_index
            )
            self._record(t, alert, spec.kind, "applied", attempt, None, "")

    def _rollback(
        self,
        key: ActionKey,
        t: float,
        outcome: str,
        detail: str,
        collateral: Optional[float] = None,
    ) -> None:
        active = self._active.pop(key)
        try:
            self.actuator.revert(active.spec)
        except ActionFailure as exc:
            detail = f"{detail}; revert failed: {exc}"
        self._cooldown_until[key] = (
            self._step_index + self.playbook.cooldown_periods
        )
        if outcome == "aborted":
            self.aborted += 1
        self._record(t, active.alert, key[1], outcome, 0, collateral, detail)

    # -- recording -----------------------------------------------------
    def _record(
        self,
        t: float,
        alert: str,
        kind: str,
        outcome: str,
        attempt: int,
        collateral: Optional[float],
        detail: str,
    ) -> None:
        entry = {
            "t": round(float(t), 9),
            "alert": alert,
            "kind": kind,
            "outcome": outcome,
            "attempt": int(attempt),
            "collateral": (
                None if collateral is None else round(float(collateral), 9)
            ),
            "detail": detail,
        }
        self.timeline.append(entry)
        if self._m_actions is not None:
            self._m_actions.labels(kind, outcome).inc()
        if self._events is None:
            return
        event_kind = (
            "response_aborted" if outcome == "aborted" else "response_action"
        )
        # The event payload carries the timeline entry verbatim, except
        # "kind" travels as "action" ("kind" is the event-log's own
        # positional field); timeline_from_events maps it back.
        payload = dict(entry)
        payload["action"] = payload.pop("kind")
        self._events.emit(event_kind, **payload)

    # -- summaries -----------------------------------------------------
    @property
    def active_actions(self) -> List[str]:
        return sorted(f"{alert}/{kind}" for alert, kind in self._active)

    def to_dict(self) -> Dict[str, Any]:
        outcomes: Dict[str, int] = {}
        for entry in self.timeline:
            outcomes[entry["outcome"]] = outcomes.get(entry["outcome"], 0) + 1
        return {
            "playbook": self.playbook.to_dict(),
            "steps": self._step_index,
            "active_actions": self.active_actions,
            "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
            "aborted": self.aborted,
            "peak_collateral": round(self.peak_collateral, 9),
            "timeline": [dict(entry) for entry in self.timeline],
        }


def timeline_from_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild the mitigation timeline from recorded events alone.

    Feed it the parsed JSONL a run wrote (see
    :func:`repro.obs.events.read_jsonl`); the result is entry-for-entry
    identical to the live engine's ``timeline`` — the property the
    ``repro respond --replay`` path and its byte-diff test rely on."""
    timeline: List[Dict[str, Any]] = []
    for event in events:
        if event.get("event") not in TIMELINE_EVENT_KINDS:
            continue
        timeline.append(
            {
                name: event.get("action" if name == "kind" else name)
                for name in TIMELINE_FIELDS
            }
        )
    return timeline


# ----------------------------------------------------------------------
# Actuators
# ----------------------------------------------------------------------
class Actuator:
    """Interface the engine drives.  ``apply``/``revert`` raise
    :class:`ActionFailure` on error; ``collateral`` reports the fraction
    of legitimate flows the action has dropped since it applied."""

    def apply(self, spec: ActionSpec) -> None:
        raise NotImplementedError

    def revert(self, spec: ActionSpec) -> None:
        raise NotImplementedError

    def collateral(self, spec: ActionSpec) -> float:
        return 0.0


class VictimActuator(Actuator):
    """Applies mitigations inside a live
    :class:`~repro.tcpsim.network.VictimNetwork`.

    The actuator doubles as the victim-side traffic observer: wire
    :meth:`observe` into the network's ``tap_inbound`` so it can build
    the suspect-prefix ranking that ``block_prefixes`` consumes.
    Ranking is a Space-Saving top-K sketch over per-prefix SYN arrivals
    (the PR-7 rollup machinery), discounted by completed handshakes per
    prefix — prefixes whose SYNs complete are almost certainly
    legitimate, prefixes whose SYNs never complete are the flood.

    Supported action kinds:

    ``block_prefixes``
        Install an inbound blocklist of the top suspect prefixes
        (params: ``top_k`` = 4, ``min_score`` = 1.0).
    ``rate_limit``
        Token-bucket inbound SYNs (params: ``rate`` required,
        ``burst`` = rate).  Indiscriminate by design — the action the
        safety valve exists for.
    ``syn_cookies``
        Swap the victim server for a stateless
        :class:`~repro.defense.syncookies.SynCookieServer`; revert swaps
        the original back.
    ``syn_proxy``
        Interpose a :class:`~repro.defense.proxy.SynProxy` in front of
        the server (params: ``pending_capacity`` = 4096,
        ``pending_timeout`` = 10.0).
    ``synkill``
        Arm a :class:`~repro.defense.synkill.SynkillMonitor` that RST-
        flushes half-open entries of never-completing sources (params:
        ``staleness`` = 6.0, ``expiry`` = 300.0).
    """

    def __init__(
        self,
        network: Any,
        prefix_bits: int = 16,
        suspect_capacity: int = 64,
        ack_forgiveness: float = 4.0,
        seed: int = 0x5D06,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        from ..obs.rollup import SpaceSavingTopK

        if not 1 <= prefix_bits <= 32:
            raise ValueError(f"prefix_bits out of range: {prefix_bits}")
        if ack_forgiveness < 0:
            raise ValueError(
                f"ack_forgiveness cannot be negative: {ack_forgiveness}"
            )
        self.network = network
        self.prefix_bits = prefix_bits
        self.ack_forgiveness = ack_forgiveness
        self.seed = seed
        #: Passed into the defense primitives this actuator instantiates
        #: (cookie server, proxy) so their counters land in the same
        #: registry as the engine's response_* series.
        self.obs = obs
        self.suspects = SpaceSavingTopK(suspect_capacity, mode="sum")
        self._prefix_acks: Dict[str, int] = {}
        self._blocked: Dict[str, IPv4Network] = {}
        #: Every prefix ever blocked (survives rollback — the incident
        #: record the campaign report lists).
        self.blocked_history: List[str] = []
        self._bucket: Optional[TokenBucket] = None
        self._saved_server: Any = None
        self._proxy: Any = None
        self._saved_receiver: Any = None
        self._synkill: Any = None
        self.legit_syns_seen = 0
        self._legit_seen_at_apply: Dict[str, int] = {}
        self._legit_drops: Dict[str, int] = {}
        self._flood_drops: Dict[str, int] = {}
        network.inbound_filter = self._filter_inbound

    # -- observation ---------------------------------------------------
    def _prefix_of(self, address: IPv4Address) -> str:
        mask = (0xFFFFFFFF << (32 - self.prefix_bits)) & 0xFFFFFFFF
        return f"{IPv4Address(int(address) & mask)}/{self.prefix_bits}"

    def observe(self, packet: Packet) -> None:
        """Passive tap on the victim's inbound interface (pre-filter)."""
        segment = packet.tcp
        if segment is None or packet.dst_ip != self.network.victim_address:
            return
        if segment.is_syn and not segment.is_syn_ack:
            prefix = self._prefix_of(packet.src_ip)
            self.suspects.offer(prefix, 1.0)
            if int(packet.src_ip) in self.network.clients:
                self.legit_syns_seen += 1
        elif segment.flags and not segment.is_rst:
            # A non-SYN toward the service: handshake-completion (or
            # data) evidence that this prefix holds real hosts.
            prefix = self._prefix_of(packet.src_ip)
            self._prefix_acks[prefix] = self._prefix_acks.get(prefix, 0) + 1
        if self._synkill is not None:
            self._synkill.observe(packet)

    def suspect_ranking(self) -> List[Tuple[str, float]]:
        """Prefixes by unanswered-SYN score, descending (name-ascending
        ties): SYN count from the sketch, discounted by completions.

        Each completion forgives ``ack_forgiveness`` SYNs, not one — a
        client whose handshake eventually succeeds typically sent
        several retransmitted SYNs first (TCP retries while the victim's
        backlog is full), and those must not read as flood evidence.  A
        prefix with real hosts completing handshakes therefore scores at
        or below zero even mid-attack, while a spoofed-source flood
        (zero completions) keeps its full SYN volume."""
        scored = [
            (
                entry["agent"],
                entry["weight"]
                - self.ack_forgiveness
                * self._prefix_acks.get(entry["agent"], 0),
            )
            for entry in self.suspects.top()
        ]
        return sorted(scored, key=lambda item: (-item[1], item[0]))

    # -- the inbound filter (installed at construction) ----------------
    def _filter_inbound(self, packet: Packet) -> bool:
        segment = packet.tcp
        if segment is None or not segment.is_syn or segment.is_syn_ack:
            return True
        legitimate = int(packet.src_ip) in self.network.clients
        if self._blocked:
            value = int(packet.src_ip)
            for network in self._blocked.values():
                if (value & network.netmask_int) == int(network.network):
                    bucket = (
                        self._legit_drops if legitimate else self._flood_drops
                    )
                    bucket["block_prefixes"] = (
                        bucket.get("block_prefixes", 0) + 1
                    )
                    return False
        if self._bucket is not None and not self._bucket.consume(
            packet.timestamp
        ):
            bucket = self._legit_drops if legitimate else self._flood_drops
            bucket["rate_limit"] = bucket.get("rate_limit", 0) + 1
            return False
        return True

    # -- engine interface ----------------------------------------------
    def apply(self, spec: ActionSpec) -> None:
        params = spec.params_dict
        handler = getattr(self, f"_apply_{spec.kind}", None)
        if handler is None:
            raise ActionFailure(f"unsupported action kind: {spec.kind!r}")
        handler(params)
        self._legit_seen_at_apply[spec.kind] = self.legit_syns_seen
        self._legit_drops[spec.kind] = 0
        self._flood_drops[spec.kind] = 0

    def revert(self, spec: ActionSpec) -> None:
        handler = getattr(self, f"_revert_{spec.kind}", None)
        if handler is None:
            raise ActionFailure(f"unsupported action kind: {spec.kind!r}")
        handler()

    def collateral(self, spec: ActionSpec) -> float:
        dropped = self._legit_drops.get(spec.kind, 0)
        if not dropped:
            return 0.0
        seen = self.legit_syns_seen - self._legit_seen_at_apply.get(
            spec.kind, 0
        )
        return dropped / max(1, seen)

    def drops(self, kind: str) -> Dict[str, int]:
        return {
            "legitimate": self._legit_drops.get(kind, 0),
            "flood": self._flood_drops.get(kind, 0),
        }

    def blocked_prefixes(self) -> List[str]:
        return sorted(self._blocked)

    # -- action kinds --------------------------------------------------
    def _apply_block_prefixes(self, params: Dict[str, Any]) -> None:
        top_k = int(params.get("top_k", 4))
        min_score = float(params.get("min_score", 1.0))
        selected = [
            name
            for name, score in self.suspect_ranking()[:top_k]
            if score >= min_score
        ]
        if not selected:
            raise ActionFailure("no suspect prefixes above min_score")
        self._blocked = {
            name: IPv4Network.parse(name) for name in selected
        }
        for name in selected:
            if name not in self.blocked_history:
                self.blocked_history.append(name)

    def _revert_block_prefixes(self) -> None:
        self._blocked = {}

    def _apply_rate_limit(self, params: Dict[str, Any]) -> None:
        rate = float(params.get("rate", 0.0))
        if rate <= 0:
            raise ActionFailure(f"rate_limit needs a positive rate: {rate}")
        burst = float(params.get("burst", rate))
        self._bucket = TokenBucket(rate=rate, burst=burst)

    def _revert_rate_limit(self) -> None:
        self._bucket = None

    def _apply_syn_cookies(self, params: Dict[str, Any]) -> None:
        import random

        from .syncookies import SynCookieServer

        if self._saved_server is not None:
            raise ActionFailure("syn_cookies already active")
        cookie_server = SynCookieServer(
            self.network.scheduler,
            address=self.network.victim_address,
            output=self.network.from_victim.send,
            rng=random.Random(int(params.get("seed", self.seed))),
            obs=self.obs,
        )
        self._saved_server = self.network.swap_server(cookie_server)

    def _revert_syn_cookies(self) -> None:
        if self._saved_server is None:
            raise ActionFailure("syn_cookies not active")
        self.network.swap_server(self._saved_server)
        self._saved_server = None

    def _apply_syn_proxy(self, params: Dict[str, Any]) -> None:
        import random

        from .proxy import SynProxy

        if self._proxy is not None:
            raise ActionFailure("syn_proxy already active")
        proxy = SynProxy(
            self.network.scheduler,
            to_client=self.network.from_victim.send,
            to_server=self.network.server.receive,
            server_address=self.network.victim_address,
            pending_capacity=int(params.get("pending_capacity", 4096)),
            pending_timeout=float(params.get("pending_timeout", 10.0)),
            rng=random.Random(int(params.get("seed", self.seed))),
            obs=self.obs,
        )
        self._proxy = proxy
        self._saved_receiver = self.network.server_receiver
        self.network.server_receiver = proxy.receive_from_client
        self.network.outbound_interceptor = proxy.receive_from_server

    def _revert_syn_proxy(self) -> None:
        if self._proxy is None:
            raise ActionFailure("syn_proxy not active")
        self.network.server_receiver = self._saved_receiver
        self.network.outbound_interceptor = None
        self._proxy = None
        self._saved_receiver = None

    def _apply_synkill(self, params: Dict[str, Any]) -> None:
        from .synkill import SynkillMonitor

        if self._synkill is not None:
            raise ActionFailure("synkill already active")

        def inject(packet: Packet) -> None:
            # Mute injections scheduled before a revert: the monitor's
            # staleness timers may fire after the action is rolled back.
            if self._synkill is monitor:
                self.network.server.receive(packet)

        monitor = SynkillMonitor(
            self.network.scheduler,
            inject=inject,
            server_address=self.network.victim_address,
            staleness=float(params.get("staleness", 6.0)),
            expiry=float(params.get("expiry", 300.0)),
        )
        self._synkill = monitor

    def _revert_synkill(self) -> None:
        if self._synkill is None:
            raise ActionFailure("synkill not active")
        self._synkill = None


class RouterActuator(Actuator):
    """Drives a leaf router's RFC 2267 ingress filter — the source-side
    response of the paper's Section 4.2.3.  Supports one kind,
    ``ingress_filter``: apply switches the filter to enforce mode,
    revert returns it to monitor mode."""

    def __init__(self, ingress_filter: Any) -> None:
        self.filter = ingress_filter

    def apply(self, spec: ActionSpec) -> None:
        if spec.kind != "ingress_filter":
            raise ActionFailure(f"unsupported action kind: {spec.kind!r}")
        self.filter.enforce = True

    def revert(self, spec: ActionSpec) -> None:
        if spec.kind != "ingress_filter":
            raise ActionFailure(f"unsupported action kind: {spec.kind!r}")
        self.filter.enforce = False

    def collateral(self, spec: ActionSpec) -> float:
        # Ingress filtering drops only spoofed-source frames: zero
        # collateral by construction (the paper's selling point).
        return 0.0


class FlakyActuator(Actuator):
    """Deterministic fault injector for the retry/backoff benches: the
    first *failures* ``apply`` calls (optionally only for *kinds*)
    raise :class:`ActionFailure`, then the wrapped actuator takes over.
    Reverts always pass through."""

    def __init__(
        self,
        inner: Actuator,
        failures: int = 1,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if failures < 0:
            raise ValueError(f"failures cannot be negative: {failures}")
        self.inner = inner
        self.failures_remaining = failures
        self.kinds = kinds
        self.faults_injected = 0

    def apply(self, spec: ActionSpec) -> None:
        if self.failures_remaining > 0 and (
            self.kinds is None or spec.kind in self.kinds
        ):
            self.failures_remaining -= 1
            self.faults_injected += 1
            raise ActionFailure(
                f"injected actuator fault ({self.faults_injected})"
            )
        self.inner.apply(spec)

    def revert(self, spec: ActionSpec) -> None:
        self.inner.revert(spec)

    def collateral(self, spec: ActionSpec) -> float:
        return self.inner.collateral(spec)
