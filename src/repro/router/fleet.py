"""A federation of SYN-dog agents — many stub networks, one view.

The paper argues SYN-dog "is incrementally deployable and works without
requiring a wide installation" — each agent is autonomous — but an ISP
or CERT operating many leaf routers still wants the fleet's alarms in
one place.  :class:`Federation` owns a set of (router, agent) pairs at
packet level, fans traffic out to the right member, gathers alarms on a
shared bus, and merges the per-network localization reports into one
incident view: which stub networks host slaves, which hosts they are,
and how much of the observed flood is attributed.

This is the packet-level counterpart of the count-level Monte-Carlo in
:mod:`repro.experiments.campaign`: that module answers statistical
questions over thousands of networks; this one runs the full pipeline —
classification, ingress filtering, MAC localization — for a handful of
networks in complete detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import SynDog
from ..obs.rollup import FleetRollup
from ..obs.runtime import (
    AgentSummary,
    Instrumentation,
    resolve_instrumentation,
)
from ..packet.addresses import IPv4Network
from ..packet.packet import Packet
from ..traceback.locator import LocatedHost
from .agent import AlarmEvent, SynDogAgent
from .leafrouter import LeafRouter

__all__ = [
    "Federation",
    "FederationFeedError",
    "FederationIncident",
    "MemberAlarm",
]


class FederationFeedError(RuntimeError):
    """One or more members failed while the whole fleet was being fed.

    Raised *after* every member got its traffic, so a single crashing
    agent cannot starve its healthy peers of delivery.  ``errors`` maps
    member name → the exception it raised; ``processed`` maps member
    name → packets successfully replayed (0 for the failed ones).
    """

    def __init__(
        self,
        errors: Dict[str, BaseException],
        processed: Dict[str, int],
    ) -> None:
        summary = ", ".join(
            f"{name}: {type(error).__name__}: {error}"
            for name, error in sorted(errors.items())
        )
        super().__init__(
            f"{len(errors)} federation member(s) failed during feed "
            f"[{summary}]"
        )
        self.errors = dict(errors)
        self.processed = dict(processed)


@dataclass(frozen=True)
class MemberAlarm:
    """One member's alarm, as seen on the federation bus."""

    network_name: str
    event: AlarmEvent


@dataclass(frozen=True)
class FederationIncident:
    """The merged incident view across all alarming members.

    Quorum-aware: ``members_down`` names the agents that were crashed
    (and not restarted) when the incident was assembled, and ``quorum``
    is the alive fraction — an incident cut while half the fleet is
    down must say so, because "no alarm from network X" means nothing
    when X's agent was not observing.
    """

    alarms: Tuple[MemberAlarm, ...]
    suspects: Tuple[Tuple[str, LocatedHost], ...]  #: (network, host) pairs
    members_down: Tuple[str, ...] = ()
    quorum: float = 1.0

    @property
    def networks_alarming(self) -> List[str]:
        return [alarm.network_name for alarm in self.alarms]

    @property
    def hosts_localized(self) -> int:
        return sum(1 for _network, host in self.suspects if host.known)

    @property
    def degraded(self) -> bool:
        """True when the view was assembled with members missing."""
        return bool(self.members_down)


class Federation:
    """A fleet of leaf routers with SYN-dog agents.

    Usage::

        federation = Federation()
        federation.add_network("eng", IPv4Network.parse("10.1.0.0/16"))
        federation.add_network("dorms", IPv4Network.parse("10.2.0.0/16"))
        federation.feed("eng", outbound_packets, inbound_packets)
        ...
        incident = federation.incident()
    """

    def __init__(
        self,
        parameters: SynDogParameters = DEFAULT_PARAMETERS,
        on_alarm: Optional[Callable[[MemberAlarm], None]] = None,
        obs: Optional[Instrumentation] = None,
        auto_restart: bool = False,
    ) -> None:
        self.parameters = parameters
        self.on_alarm = on_alarm
        self._last_rollup: Optional[FleetRollup] = None
        #: Supervisor policy: when True a member that crashes mid-feed
        #: is immediately restarted from its last checkpoint instead of
        #: staying down until :meth:`restart_member` is called.
        self.auto_restart = auto_restart
        self._members: Dict[str, Tuple[LeafRouter, SynDogAgent]] = {}
        self._bus: List[MemberAlarm] = []
        self._checkpoints: Dict[str, dict] = {}
        self._down: Dict[str, str] = {}
        self._restarts: Dict[str, int] = {}
        self._obs = resolve_instrumentation(obs)
        registry = self._obs.registry
        if registry is not None:
            self._m_fed_packets = registry.counter(
                "federation_packets_total",
                "Packets replayed through the fleet, by member network",
                ("network",),
            )
            self._m_fed_alarms = registry.counter(
                "federation_alarms_total",
                "Member alarms seen on the federation bus",
                ("network",),
            )
            self._m_fed_failures = registry.counter(
                "federation_member_failures_total",
                "Member crashes observed by the federation supervisor",
                ("network",),
            )
            self._m_fed_restarts = registry.counter(
                "federation_member_restarts_total",
                "Members restarted from checkpoint by the supervisor",
                ("network",),
            )
            self._g_fed_down = registry.gauge(
                "federation_members_down",
                "Members currently crashed and awaiting restart",
            )
        else:
            self._m_fed_packets = None
            self._m_fed_alarms = None
            self._m_fed_failures = None
            self._m_fed_restarts = None
            self._g_fed_down = None
        self._events = self._obs.events
        self._tsdb = self._obs.tsdb
        self._recorder = self._obs.recorder
        # Coarse per-feed stage: one "federation.feed" call covers one
        # member replay, so it is always timed in timers mode.
        self._prof_feed = (
            self._obs.profiler.stage("federation.feed", sample_every=1)
            if self._obs.profiler is not None
            else None
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_network(
        self, name: str, stub_network: IPv4Network
    ) -> Tuple[LeafRouter, SynDogAgent]:
        """Enroll one stub network; returns its router and agent so the
        caller can register host inventory."""
        if name in self._members:
            raise ValueError(f"network {name!r} already enrolled")
        router = LeafRouter(
            stub_network=stub_network, name=f"router-{name}", obs=self._obs
        )
        return self._install_member(name, router, detector=None)

    def _alarm_relay(self, name: str) -> Callable[[AlarmEvent], None]:
        def relay(event: AlarmEvent, network_name: str = name) -> None:
            member_alarm = MemberAlarm(network_name=network_name, event=event)
            self._bus.append(member_alarm)
            if self._m_fed_alarms is not None:
                self._m_fed_alarms.labels(network_name).inc()
            if self._tsdb is not None:
                # Fleet-level alarm history: the member's CUSUM value at
                # the moment its alarm crossed, on the event's logical
                # clock — queryable per network.
                self._tsdb.append(
                    "federation_alarm_statistic",
                    {"network": network_name},
                    event.time,
                    event.statistic,
                )
            if self._events is not None:
                self._events.emit(
                    "federation_alarm",
                    network=network_name,
                    time=event.time,
                    period_index=event.period_index,
                    statistic=event.statistic,
                    k_bar=event.k_bar,
                )
            if self.on_alarm is not None:
                self.on_alarm(member_alarm)

        return relay

    def _install_member(
        self,
        name: str,
        router: LeafRouter,
        detector: Optional[SynDog],
    ) -> Tuple[LeafRouter, SynDogAgent]:
        agent = SynDogAgent(
            router,
            parameters=self.parameters,
            on_alarm=self._alarm_relay(name),
            obs=self._obs,
            detector=detector,
        )
        self._members[name] = (router, agent)
        return router, agent

    def member(self, name: str) -> Tuple[LeafRouter, SynDogAgent]:
        try:
            return self._members[name]
        except KeyError:
            raise KeyError(
                f"unknown network {name!r}; enrolled: {sorted(self._members)}"
            ) from None

    @property
    def network_names(self) -> List[str]:
        return sorted(self._members)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def feed(
        self,
        name: str,
        outbound: Iterable[Packet],
        inbound: Iterable[Packet],
    ) -> int:
        """Replay one member's traffic through its router; returns the
        number of packets processed.

        A member that raises mid-replay is marked down (its packets
        from the crash point on are lost, as they would be on a real
        router) and — with ``auto_restart`` — immediately restarted
        from its last checkpoint.  Without auto-restart the exception
        propagates after the crash is recorded.
        """
        router, agent = self.member(name)
        prof = self._prof_feed
        token = None if prof is None else prof.begin()
        try:
            processed = router.replay(outbound, inbound)
        except Exception as error:
            # The crashed replay's token is dropped: only completed
            # feeds are attributed, mirroring the packet counter below.
            self._note_crash(name, error)
            if self.auto_restart:
                self.restart_member(name)
                return 0
            raise
        if prof is not None:
            prof.end(token, packets=processed)
        self._checkpoints[name] = agent.detector.checkpoint()
        if self._m_fed_packets is not None:
            self._m_fed_packets.labels(name).inc(processed)
        return processed

    def feed_all(
        self,
        traffic: Dict[str, Tuple[Iterable[Packet], Iterable[Packet]]],
    ) -> Dict[str, int]:
        """Feed every named member its ``(outbound, inbound)`` streams,
        in sorted-name order.

        One member's exception does not abort delivery to the rest:
        every member is fed first, then — if any failed and were not
        auto-restarted — a single :class:`FederationFeedError`
        aggregating the per-member errors is raised.  Returns packets
        processed per member when all succeed.  Either way the fleet
        rollup is emitted over the fed state.
        """
        errors: Dict[str, BaseException] = {}
        processed: Dict[str, int] = {}
        for name in sorted(traffic):
            outbound, inbound = traffic[name]
            try:
                processed[name] = self.feed(name, outbound, inbound)
            except Exception as error:
                errors[name] = error
                processed[name] = 0
        self._emit_fleet_rollup()
        if errors:
            raise FederationFeedError(errors, processed)
        return processed

    def finish(self, end_time: Optional[float] = None) -> None:
        """Close trailing observation periods on every member still up
        (a crashed member has no live period to close), then emit the
        final fleet rollup over the flushed state."""
        for name, (_router, agent) in self._members.items():
            if name not in self._down:
                agent.finish(end_time=end_time)
        self._emit_fleet_rollup()

    # ------------------------------------------------------------------
    # Fleet rollup (repro.obs.rollup)
    # ------------------------------------------------------------------
    def summaries(self) -> Dict[str, AgentSummary]:
        """Every member detector's running summary, by the detector's
        name — the name its events and flight-recorder tape carry."""
        return {
            agent.detector.name: agent.detector.summary
            for _router, agent in self._members.values()
        }

    def rollup(self) -> FleetRollup:
        """The fleet's current telemetry rollup — O(K·buckets) however
        many members are enrolled (:data:`~repro.obs.rollup.DEFAULT_TOP_K`
        suspects per table).  A down member contributes its last known
        state (stale by definition) flagged ``down``."""
        return FleetRollup.from_summaries(
            self.summaries(),
            down={self._members[name][1].detector.name for name in self._down},
        )

    @property
    def last_rollup(self) -> Optional[FleetRollup]:
        """The most recent rollup emitted by ``feed_all``/``finish``."""
        return self._last_rollup

    def _emit_fleet_rollup(self) -> None:
        """Fold the fleet into one digest and publish it: ``fleet_*``
        feed samples into the TSDB (the series the fleet alert rules
        watch) and one ``fleet_rollup`` event into the log, both at the
        fleet's period watermark — logical detector time, so the
        emission is deterministic and replayable."""
        rollup = self.rollup()
        self._last_rollup = rollup
        if not self._members or rollup.watermark is None:
            return  # no member has closed a period yet: nothing to stamp
        t = rollup.watermark
        if self._tsdb is not None:
            for name, value in rollup.fleet_series():
                self._tsdb.append(name, None, t, value)
        if self._events is not None:
            self._events.emit(
                "fleet_rollup",
                time=t,
                agents=rollup.counts["total"],
                series={name: value for name, value in rollup.fleet_series()},
            )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _note_crash(self, name: str, error: BaseException) -> None:
        self._down[name] = f"{type(error).__name__}: {error}"
        if self._recorder is not None:
            self._recorder.set_down(self._members[name][1].detector.name)
        if self._m_fed_failures is not None:
            self._m_fed_failures.labels(name).inc()
        if self._g_fed_down is not None:
            self._g_fed_down.set(float(len(self._down)))
        if self._events is not None:
            self._events.emit(
                "federation_member_crashed",
                network=name,
                agent=self._members[name][1].detector.name,
                error=self._down[name],
                has_checkpoint=name in self._checkpoints,
            )

    def restart_member(self, name: str) -> Tuple[LeafRouter, SynDogAgent]:
        """Supervisor restart: rebuild the member's router and agent,
        restoring the detector from its last checkpoint.

        Detection state (K̄, CUSUM statistic, period clock) survives the
        restart; packets seen between the checkpoint and the crash are
        gone, which the detector's degraded mode absorbs.  The MAC
        inventory and ingress filter are carried over — they are the
        localization evidence an operator would not want wiped by a
        process bounce.
        """
        old_router, old_agent = self.member(name)
        state = self._checkpoints.get(name)
        router = LeafRouter(
            stub_network=old_router.stub_network,
            ingress_filter=old_router.ingress_filter,
            inventory=old_router.inventory,
            name=old_router.name,
            obs=self._obs,
        )
        detector = (
            SynDog.restore(state, obs=self._obs, name=router.name)
            if state is not None
            else None
        )
        member = self._install_member(name, router, detector)
        self._down.pop(name, None)
        if self._recorder is not None:
            self._recorder.set_down(old_agent.detector.name, down=False)
        self._restarts[name] = self._restarts.get(name, 0) + 1
        if self._m_fed_restarts is not None:
            self._m_fed_restarts.labels(name).inc()
        if self._g_fed_down is not None:
            self._g_fed_down.set(float(len(self._down)))
        if self._events is not None:
            self._events.emit(
                "federation_member_restarted",
                network=name,
                agent=member[1].detector.name,
                from_checkpoint=state is not None,
                restarts=self._restarts[name],
            )
        return member

    @property
    def members_down(self) -> Tuple[str, ...]:
        return tuple(sorted(self._down))

    @property
    def restarts(self) -> Dict[str, int]:
        """Restart count per member (members never restarted absent)."""
        return dict(self._restarts)

    @property
    def quorum(self) -> float:
        """Alive fraction of the fleet (1.0 for an empty federation)."""
        if not self._members:
            return 1.0
        alive = len(self._members) - len(self._down)
        return alive / len(self._members)

    # ------------------------------------------------------------------
    # Incident view
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Dict[str, object]]:
        """Per-member state by network name: the ``/healthz`` row of
        the member detector's running summary, plus the router name,
        liveness and restart count.  Like every view of the summary it
        reads the last period, not the live CUSUM an acknowledgement
        re-arms."""
        report: Dict[str, Dict[str, object]] = {}
        for name, (router, agent) in sorted(self._members.items()):
            report[name] = {
                "router": router.name,
                **agent.detector.summary.status_row(),
                "down": name in self._down,
                "restarts": self._restarts.get(name, 0),
            }
        return report

    @property
    def alarms(self) -> Tuple[MemberAlarm, ...]:
        return tuple(self._bus)

    @property
    def any_alarm(self) -> bool:
        return bool(self._bus)

    def incident(self) -> FederationIncident:
        """Merge every alarming member's localization into one report."""
        suspects: List[Tuple[str, LocatedHost]] = []
        for alarm in self._bus:
            _router, agent = self._members[alarm.network_name]
            report = agent.localize_now()
            for host in report.hosts:
                suspects.append((alarm.network_name, host))
        suspects.sort(key=lambda item: -item[1].spoofed_packet_count)
        return FederationIncident(
            alarms=tuple(self._bus),
            suspects=tuple(suspects),
            members_down=self.members_down,
            quorum=self.quorum,
        )
