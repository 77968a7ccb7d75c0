"""The deployed SYN-dog agent: detector + router + response hooks.

:class:`SynDogAgent` is the operational package an administrator would
actually install (Section 2's "software agent at leaf routers"): it
attaches the two sniffers to a :class:`~repro.router.leafrouter.LeafRouter`'s
interfaces, runs the CUSUM pipeline, and on alarm executes the
Section 4.2.3 response — activate ingress filtering and localize the
flooding host(s) by MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import DetectionRecord, DetectionResult, SynDog
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.packet import Packet
from ..traceback.locator import LocalizationReport, SourceLocator
from .leafrouter import LeafRouter

__all__ = ["SynDogAgent", "AlarmEvent", "AGENT_ALARM_RULE"]

AlarmCallback = Callable[["AlarmEvent"], None]

#: The alert name a router-attached agent reports its alarms under when
#: driving a :class:`~repro.defense.response.ResponseEngine` directly
#: (no AlertManager in between) — playbooks bind rules to this name.
AGENT_ALARM_RULE = "syndog_alarm"


@dataclass(frozen=True)
class AlarmEvent:
    """Everything known at the moment an alarm fires."""

    time: float
    period_index: int
    statistic: float
    k_bar: float
    localization: Optional[LocalizationReport]


class SynDogAgent:
    """A SYN-dog wired into a leaf router.

    Parameters
    ----------
    router:
        The leaf router whose interfaces are monitored.
    parameters:
        Detector parameters (paper defaults unless tuned).
    auto_respond:
        When True (default), the first alarm activates the router's
        ingress filter and produces a localization report.
    on_alarm:
        Optional callback invoked at the first alarm.
    detector:
        Optional prebuilt :class:`SynDog` — what a supervisor passes
        when restarting a crashed agent from its last checkpoint, so
        the change-point test resumes instead of resetting.
    response_engine:
        Optional :class:`~repro.defense.response.ResponseEngine`.  When
        given, the agent feeds it a ``firing`` transition under
        :data:`AGENT_ALARM_RULE` at the first alarm (and steps it), and
        a ``resolved`` transition on :meth:`acknowledge_alarm` — the
        direct-drive wiring for deployments without an AlertManager.
    """

    def __init__(
        self,
        router: LeafRouter,
        parameters: SynDogParameters = DEFAULT_PARAMETERS,
        auto_respond: bool = True,
        on_alarm: Optional[AlarmCallback] = None,
        start_time: float = 0.0,
        obs: Optional[Instrumentation] = None,
        detector: Optional[SynDog] = None,
        response_engine: Optional[object] = None,
    ) -> None:
        self.router = router
        obs = resolve_instrumentation(obs)
        # The detector inherits the router's identity so the flight
        # recorder, events and /healthz attribute periods and alarms to
        # the right leaf router.
        self.detector = detector if detector is not None else SynDog(
            parameters=parameters, start_time=start_time, obs=obs,
            name=router.name,
        )
        self._events = obs.events
        self.auto_respond = auto_respond
        self.on_alarm = on_alarm
        self.locator = SourceLocator(inventory=router.inventory)
        self.alarm_events: List[AlarmEvent] = []
        self._responded = False
        self.response_engine = response_engine
        # Tap the interfaces: outbound SYNs, inbound SYN/ACKs.
        router.outbound.attach(self._observe_outbound)
        router.inbound.attach(self._observe_inbound)

    # ------------------------------------------------------------------
    def _observe_outbound(self, packet: Packet) -> None:
        self._handle_records(self.detector.observe_outbound(packet))

    def _observe_inbound(self, packet: Packet) -> None:
        self._handle_records(self.detector.observe_inbound(packet))

    def _handle_records(self, records: List[DetectionRecord]) -> None:
        for record in records:
            if record.alarm and not self._responded:
                self._respond(record)

    def _respond(self, record: DetectionRecord) -> None:
        self._responded = True
        localization: Optional[LocalizationReport] = None
        if self.auto_respond:
            # Section 4.2.3: trigger ingress filtering, then check the
            # MAC addresses of packets whose sources are spoofed.
            self.router.ingress_filter.activate()
            localization = self.locator.locate_from_filter(
                self.router.ingress_filter
            )
        event = AlarmEvent(
            time=record.end_time,
            period_index=record.period_index,
            statistic=record.statistic,
            k_bar=record.k_bar,
            localization=localization,
        )
        self.alarm_events.append(event)
        if self._events is not None:
            self._events.emit(
                "response",
                router=self.router.name,
                time=event.time,
                period_index=event.period_index,
                statistic=event.statistic,
                ingress_filter_activated=self.auto_respond,
                hosts_localized=(
                    len(localization.hosts) if localization is not None else 0
                ),
            )
        if self.response_engine is not None:
            self.response_engine.on_transition(
                {
                    "rule": AGENT_ALARM_RULE,
                    "severity": "page",
                    "to": "firing",
                    "t": record.end_time,
                    "value": record.statistic,
                }
            )
            self.response_engine.step(record.end_time)
        if self.on_alarm is not None:
            self.on_alarm(event)

    # ------------------------------------------------------------------
    @property
    def alarmed(self) -> bool:
        return bool(self.alarm_events)

    @property
    def first_alarm(self) -> Optional[AlarmEvent]:
        return self.alarm_events[0] if self.alarm_events else None

    def finish(self, end_time: Optional[float] = None) -> DetectionResult:
        """Close the trailing observation period and return the full
        detection result."""
        self._handle_records(self.detector.flush(end_time=end_time))
        return self.detector.result()

    def localize_now(self) -> LocalizationReport:
        """On-demand localization from the evidence gathered so far."""
        return self.locator.locate_from_filter(self.router.ingress_filter)

    def acknowledge_alarm(
        self, deactivate_filter: bool = False, t: Optional[float] = None
    ) -> None:
        """Operator acknowledgement: re-arm detection and (optionally)
        lift the ingress filter once the flooding host is dealt with.
        Alarm history is kept for the incident record.  A wired
        response engine sees the alarm as resolved at *t* (defaults to
        the last alarm time) and rolls its actions back."""
        self.detector.clear_alarm()
        self._responded = False
        if deactivate_filter:
            self.router.ingress_filter.enforce = False
        if self.response_engine is not None:
            if t is None:
                t = self.alarm_events[-1].time if self.alarm_events else 0.0
            self.response_engine.on_transition(
                {
                    "rule": AGENT_ALARM_RULE,
                    "severity": "page",
                    "to": "resolved",
                    "t": t,
                    "value": 0.0,
                }
            )
            self.response_engine.step(t)
