"""The respond campaign: detect → respond → recover, measured.

Runs the victim-side flooding scenario twice:

* **unmitigated** — the attack lands on a bare finite-backlog server;
  legitimate handshake completion collapses for the duration of the
  flood (the paper's Section 1 damage model);
* **mitigated** — a SYN-dog sniffer on the victim's last-mile taps
  (Figure 6's deployment point) feeds a per-period ``syndog_delta``
  series into a local alert rule; the firing alert drives a
  :class:`~repro.defense.response.ResponseEngine` whose playbook
  blocks the flood's suspect prefixes and flips the victim to SYN
  cookies — inside the live simulation — then rolls everything back
  when the alert resolves after the attack ends.

The report compares legitimate handshake completion rates in the same
time window (first mitigation → attack end) across both arms: the
acceptance bar is *mitigated ≥ recovery_factor × unmitigated*, with
measured collateral below the playbook's cap.

Determinism contract: each arm is a pure function of its
:class:`RespondArmTask`; the arms run as :mod:`repro.parallel` grid
items and the report — and the mitigation timeline, and the merged
events JSONL it can be rebuilt from — is byte-identical at any
``workers``.

Direction note: at the victim's last mile the sniffer's roles invert
relative to the source-side stub deployment — SYNs *arrive* on the
inbound tap (fed to the detector's SYN-direction interface) and
SYN/ACKs *leave* on the outbound tap (fed to the SYN/ACK-direction
interface).  The delta semantics are unchanged: SYNs unanswered by
SYN/ACKs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..attack.flooder import FloodSource
from ..attack.spoofing import SubnetRandomSpoofer
from ..core.parameters import SynDogParameters
from ..core.syndog import SynDog
from ..defense.response import (
    FlakyActuator,
    Playbook,
    ResponseEngine,
    VictimActuator,
)
from ..obs.alerts import AlertManager, AlertRule
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..obs.tsdb import TimeSeriesDB
from ..packet.addresses import IPv4Network
from ..tcpsim.network import VictimNetwork

__all__ = [
    "RespondArmTask",
    "RespondReport",
    "default_playbook",
    "run_respond_arm",
    "run_respond_campaign",
    "timeline_document",
    "render_respond_report",
]

#: The alert the campaign's playbook binds to.
RESPOND_ALERT = "syn_flood"


def default_playbook(
    top_k: int = 4,
    min_score: float = 200.0,
    max_collateral_fraction: float = 0.25,
) -> Dict[str, Any]:
    """The stock respond playbook: block the flood's suspect prefixes
    (bounded collateral, generous TTL) and shield the victim with SYN
    cookies until the alert resolves.

    ``min_score`` separates flood prefixes from legitimate ones in the
    unanswered-SYN ranking; it should sit between the legitimate and
    flood per-period SYN volumes (the default fits the stock scenario's
    200 SYN/s flood over 5 s periods ≈ 1000/period vs ≲ 100 legitimate).
    """
    return {
        "name": "block-and-shield",
        "cooldown_periods": 2,
        "rules": [
            {
                "alert": RESPOND_ALERT,
                "actions": [
                    {
                        "kind": "block_prefixes",
                        "params": {"top_k": top_k, "min_score": min_score},
                        "ttl_periods": 60,
                        "max_retries": 3,
                        "backoff_periods": 1,
                        "max_collateral_fraction": max_collateral_fraction,
                    },
                    {
                        "kind": "syn_cookies",
                        "max_retries": 1,
                        "backoff_periods": 1,
                    },
                ],
            }
        ],
    }


@dataclass(frozen=True)
class RespondArmTask:
    """One arm's full scenario — a picklable grid item.  The playbook
    travels as canonical JSON so the task stays hashable."""

    arm: str  #: "unmitigated" | "mitigated"
    seed: int
    rate: float
    client_rate: float
    duration: float
    attack_start: float
    attack_duration: float
    period: float
    backlog_capacity: int
    playbook_json: str
    spoof_network: str
    alert_cut: float
    actuator_failures: int


def _build_network(task: RespondArmTask) -> Tuple[VictimNetwork, FloodSource]:
    network = VictimNetwork(
        seed=task.seed,
        backlog_capacity=task.backlog_capacity,
        client_rate=task.client_rate,
    )
    flood = FloodSource(
        pattern=task.rate,
        victim=network.victim_address,
        spoofer=SubnetRandomSpoofer(IPv4Network.parse(task.spoof_network)),
    )
    return network, flood


def _schedule_occupancy_samples(
    network: VictimNetwork, duration: float, period: float
) -> List[Tuple[float, int]]:
    """Sample the *active* server's half-open occupancy once per period
    (the victim-recovery signal the report summarizes)."""
    samples: List[Tuple[float, int]] = []
    boundary = period
    while boundary <= duration:
        def sample(t: float = boundary) -> None:
            samples.append((t, network.server.half_open_count))

        network.scheduler.schedule(boundary, sample)
        boundary += period
    return samples


def _summarize_occupancy(
    samples: List[Tuple[float, int]], attack_end: float
) -> Dict[str, Any]:
    at_attack_end = 0
    for t, value in samples:
        if t <= attack_end:
            at_attack_end = value
    return {
        "peak": max((value for _, value in samples), default=0),
        "at_attack_end": at_attack_end,
        "final": samples[-1][1] if samples else 0,
    }


def _completion_rate(
    outcomes: List[Tuple[float, bool]], lo: float, hi: float
) -> Optional[float]:
    """Fraction of connection attempts started in [lo, hi) that
    eventually established; None when the window saw no attempts."""
    attempts = succeeded = 0
    for t, ok in outcomes:
        if lo <= t < hi:
            attempts += 1
            succeeded += 1 if ok else 0
    if attempts == 0:
        return None
    return succeeded / attempts


def _phase_rates(
    outcomes: List[Tuple[float, bool]], attack_start: float, attack_end: float
) -> Dict[str, Optional[float]]:
    rates = {
        "pre_attack": _completion_rate(outcomes, float("-inf"), attack_start),
        "attack": _completion_rate(outcomes, attack_start, attack_end),
        "post_attack": _completion_rate(outcomes, attack_end, float("inf")),
    }
    return {
        phase: None if value is None else round(value, 9)
        for phase, value in rates.items()
    }


def run_respond_arm(
    task: RespondArmTask, obs: Optional[Instrumentation] = None
) -> Dict[str, Any]:
    """Run one arm end to end; returns a picklable result dict."""
    ambient = resolve_instrumentation(obs)
    network, flood = _build_network(task)
    attack_end = task.attack_start + task.attack_duration
    occupancy = _schedule_occupancy_samples(
        network, task.duration, task.period
    )

    if task.arm == "unmitigated":
        result = network.run(
            task.duration,
            flood=flood,
            flood_start=task.attack_start,
            flood_duration=task.attack_duration,
        )
        outcomes = network.attempt_outcomes()
        return {
            "arm": task.arm,
            "attempts": result.legitimate_attempts,
            "established": result.legitimate_established,
            "phase_rates": _phase_rates(
                outcomes, task.attack_start, attack_end
            ),
            "backlog_peak": result.backlog_peak,
            "backlog_refused": result.backlog_refused,
            "half_open": _summarize_occupancy(occupancy, attack_end),
            "filtered_inbound": network.filtered_inbound,
            "outcomes": [[round(t, 9), bool(ok)] for t, ok in outcomes],
            "detection": None,
            "response": None,
            "timeline": [],
        }

    # ------------------------------------------------------------------
    # Mitigated arm: detector + alert rule + response engine, in-loop.
    # ------------------------------------------------------------------
    playbook = Playbook.from_dict(json.loads(task.playbook_json))
    parameters = SynDogParameters(observation_period=task.period)
    # Per-arm telemetry store and alert manager: always enabled, local
    # to this arm, so detection → alert → response behaves identically
    # in every shard (shard bundles carry no live alert rules of their
    # own).  Snapshots are
    # off — only the detector's explicit series matter here.
    local_tsdb = TimeSeriesDB(retention=8192, record_snapshots=False)
    local_alerts = AlertManager(
        rules=[
            AlertRule(
                name=RESPOND_ALERT,
                expr=(
                    f"last_over_time(syndog_delta[{2 * task.period:g}s])"
                    f" > {task.alert_cut!r}"
                ),
                for_periods=1,
                severity="page",
                description=(
                    "Victim last-mile SYN-dog sees a sustained excess of "
                    "inbound SYNs over outbound SYN/ACKs"
                ),
            )
        ]
    )
    detector_obs = Instrumentation(
        registry=ambient.registry,
        events=ambient.events,
        tsdb=local_tsdb,
        alerts=local_alerts,
    )
    dog = SynDog(
        parameters=parameters, obs=detector_obs, name="victim-lastmile"
    )
    actuator = VictimActuator(network, obs=ambient)
    engine_actuator = (
        FlakyActuator(actuator, failures=task.actuator_failures)
        if task.actuator_failures > 0
        else actuator
    )
    # The engine reports through the *ambient* bundle: its counters,
    # response_* series, and response_action events are campaign
    # telemetry (merged across workers), unlike the arm-local rule
    # plumbing above.
    engine = ResponseEngine(playbook, engine_actuator, obs=ambient).attach(
        local_alerts
    )

    period_records: List[Any] = []

    def handle(records: List[Any]) -> None:
        for record in records:
            period_records.append(record)
            local_alerts.evaluate(record.end_time)
            engine.step(record.end_time)

    def tap_inbound(packet: Any) -> None:
        actuator.observe(packet)
        handle(dog.observe_outbound(packet))

    def tap_outbound(packet: Any) -> None:
        handle(dog.observe_inbound(packet))

    network.tap_inbound = tap_inbound
    network.tap_outbound = tap_outbound

    result = network.run(
        task.duration,
        flood=flood,
        flood_start=task.attack_start,
        flood_duration=task.attack_duration,
    )
    handle(dog.flush())
    final_t = task.duration + 30.0
    local_alerts.close(final_t)
    engine.finish(final_t)

    outcomes = network.attempt_outcomes()
    first_alarm = next((r for r in period_records if r.alarm), None)
    first_applied = next(
        (e for e in engine.timeline if e["outcome"] == "applied"), None
    )
    summary = engine.to_dict()
    return {
        "arm": task.arm,
        "attempts": result.legitimate_attempts,
        "established": result.legitimate_established,
        "phase_rates": _phase_rates(outcomes, task.attack_start, attack_end),
        "backlog_peak": result.backlog_peak,
        "backlog_refused": result.backlog_refused,
        "half_open": _summarize_occupancy(occupancy, attack_end),
        "filtered_inbound": network.filtered_inbound,
        "outcomes": [[round(t, 9), bool(ok)] for t, ok in outcomes],
        "detection": {
            "periods": len(period_records),
            "alarmed": first_alarm is not None,
            "first_alarm_time": (
                None if first_alarm is None else round(first_alarm.end_time, 9)
            ),
        },
        "response": {
            "mitigation_time": (
                None if first_applied is None else first_applied["t"]
            ),
            "outcomes": summary["outcomes"],
            "aborted": summary["aborted"],
            "peak_collateral": summary["peak_collateral"],
            "blocked_prefixes": sorted(actuator.blocked_history),
            "drops": {
                kind: actuator.drops(kind)
                for kind in ("block_prefixes", "rate_limit")
            },
            "legit_syns_seen": actuator.legit_syns_seen,
        },
        "timeline": [dict(entry) for entry in engine.timeline],
    }


def _respond_arm_worker(task: RespondArmTask, obs: Instrumentation) -> dict:
    """Engine adapter: only the mitigated arm instruments — the control
    stays dark, matching the chaos campaign's contract."""
    return run_respond_arm(task, obs=obs if task.arm == "mitigated" else None)


@dataclass(frozen=True)
class RespondReport:
    """The full, deterministic record of one respond campaign."""

    seed: int
    rate: float
    client_rate: float
    duration: float
    attack_start: float
    attack_duration: float
    period: float
    backlog_capacity: int
    spoof_network: str
    alert_cut: float
    actuator_failures: int
    recovery_factor: float
    playbook: Playbook
    unmitigated: Dict[str, Any]
    mitigated: Dict[str, Any]

    @property
    def attack_end(self) -> float:
        return self.attack_start + self.attack_duration

    @property
    def mitigation_time(self) -> Optional[float]:
        response = self.mitigated.get("response") or {}
        return response.get("mitigation_time")

    def _window(self) -> Tuple[float, float]:
        start = self.mitigation_time
        if start is None:
            start = self.attack_start
        return (start, self.attack_end)

    def _window_rates(self) -> Tuple[Optional[float], Optional[float]]:
        lo, hi = self._window()
        unmit = _completion_rate(
            [(t, ok) for t, ok in self.unmitigated["outcomes"]], lo, hi
        )
        mit = _completion_rate(
            [(t, ok) for t, ok in self.mitigated["outcomes"]], lo, hi
        )
        return unmit, mit

    @property
    def recovery_ratio(self) -> Optional[float]:
        unmit, mit = self._window_rates()
        if mit is None or unmit is None or unmit == 0.0:
            return None
        return mit / unmit

    @property
    def recovered(self) -> bool:
        """Mitigated completion in the mitigation window beats the
        unmitigated arm's in the same window by ``recovery_factor``
        (any completion at all beats a flatlined baseline)."""
        if self.mitigation_time is None:
            return False
        unmit, mit = self._window_rates()
        if mit is None:
            return False
        if unmit is None or unmit == 0.0:
            return mit > 0.0
        return mit >= self.recovery_factor * unmit

    @property
    def collateral_cap(self) -> float:
        caps = [
            spec.max_collateral_fraction
            for rule in self.playbook.rules
            for spec in rule.actions
            if spec.max_collateral_fraction is not None
        ]
        return min(caps) if caps else 1.0

    @property
    def collateral_within_cap(self) -> bool:
        response = self.mitigated.get("response") or {}
        return (
            response.get("aborted", 0) == 0
            and response.get("peak_collateral", 0.0) <= self.collateral_cap
        )

    @property
    def passed(self) -> bool:
        return self.recovered and self.collateral_within_cap

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic, timestamp-free JSON image (raw per-attempt
        outcome lists are summarized away)."""
        unmit_rate, mit_rate = self._window_rates()
        lo, hi = self._window()
        ratio = self.recovery_ratio

        def arm_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
            doc = {k: v for k, v in arm.items() if k != "outcomes"}
            return doc

        return {
            "scenario": {
                "seed": self.seed,
                "rate": self.rate,
                "client_rate": self.client_rate,
                "duration": self.duration,
                "attack_start": self.attack_start,
                "attack_duration": self.attack_duration,
                "period": self.period,
                "backlog_capacity": self.backlog_capacity,
                "spoof_network": self.spoof_network,
                "alert_cut": self.alert_cut,
                "actuator_failures": self.actuator_failures,
                "recovery_factor": self.recovery_factor,
            },
            "playbook": self.playbook.to_dict(),
            "unmitigated": arm_doc(self.unmitigated),
            "mitigated": arm_doc(self.mitigated),
            "recovery": {
                "window": [round(lo, 9), round(hi, 9)],
                "mitigation_time": self.mitigation_time,
                "unmitigated_window_rate": (
                    None if unmit_rate is None else round(unmit_rate, 9)
                ),
                "mitigated_window_rate": (
                    None if mit_rate is None else round(mit_rate, 9)
                ),
                "recovery_ratio": None if ratio is None else round(ratio, 9),
                "recovered": self.recovered,
                "collateral_cap": self.collateral_cap,
                "collateral_within_cap": self.collateral_within_cap,
                "passed": self.passed,
            },
            "timeline": [dict(e) for e in self.mitigated["timeline"]],
        }


def run_respond_campaign(
    seed: int = 7,
    rate: float = 200.0,
    client_rate: float = 15.0,
    duration: float = 300.0,
    attack_start: float = 60.0,
    attack_duration: float = 120.0,
    period: float = 5.0,
    backlog_capacity: int = 256,
    playbook: Optional[Any] = None,
    spoof_network: str = "10.66.0.0/16",
    alert_cut: float = 50.0,
    actuator_failures: int = 0,
    recovery_factor: float = 2.0,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
) -> RespondReport:
    """Run the unmitigated and mitigated arms and measure recovery.

    The stock scenario: a 200 SYN/s flood with sources spoofed inside
    one /16 hits a 256-entry backlog for two minutes; legitimate
    clients attempt ~15 connections/s throughout.  Only the mitigated
    arm is instrumented (``obs``), so exported ``response_*`` telemetry
    describes the closed loop, not the control.  ``actuator_failures``
    injects that many deterministic apply-faults into the actuator to
    exercise the engine's retry/backoff path end to end.
    """
    if playbook is None:
        playbook_doc = default_playbook()
    elif isinstance(playbook, Playbook):
        playbook_doc = playbook.to_dict()
    else:
        playbook_doc = playbook
    parsed = Playbook.from_dict(playbook_doc)  # validate before running
    # Likewise t0: a period of 0 or NaN would schedule occupancy samples
    # forever.
    SynDogParameters(observation_period=period)
    playbook_json = json.dumps(playbook_doc, sort_keys=True)
    tasks = [
        RespondArmTask(
            arm=arm,
            seed=seed,
            rate=rate,
            client_rate=client_rate,
            duration=duration,
            attack_start=attack_start,
            attack_duration=attack_duration,
            period=period,
            backlog_capacity=backlog_capacity,
            playbook_json=playbook_json,
            spoof_network=spoof_network,
            alert_cut=alert_cut,
            actuator_failures=actuator_failures,
        )
        for arm in ("unmitigated", "mitigated")
    ]

    from ..parallel import WorkPlan, run_plan

    unmitigated, mitigated = run_plan(
        WorkPlan.partition(tasks), _respond_arm_worker, workers=workers, obs=obs
    )
    return RespondReport(
        seed=seed,
        rate=rate,
        client_rate=client_rate,
        duration=duration,
        attack_start=attack_start,
        attack_duration=attack_duration,
        period=period,
        backlog_capacity=backlog_capacity,
        spoof_network=spoof_network,
        alert_cut=alert_cut,
        actuator_failures=actuator_failures,
        recovery_factor=recovery_factor,
        playbook=parsed,
        unmitigated=unmitigated,
        mitigated=mitigated,
    )


def timeline_document(timeline: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The canonical mitigation-timeline document — produced identically
    from a live report (``report.mitigated["timeline"]``) or from
    :func:`repro.defense.response.timeline_from_events` over a recorded
    events JSONL, which is what ``repro respond --replay`` byte-diffs."""
    return {"entries": [dict(e) for e in timeline], "count": len(timeline)}


def render_respond_report(report: RespondReport) -> str:
    """Human-readable campaign summary (the CLI's stdout)."""
    doc = report.to_dict()
    recovery = doc["recovery"]
    mitigation = recovery["mitigation_time"]
    detection = doc["mitigated"]["detection"] or {}
    lines = [
        f"scenario         : {report.rate:g} SYN/s flood from "
        f"t={report.attack_start:g}s for {report.attack_duration:g}s "
        f"(clients {report.client_rate:g}/s, backlog "
        f"{report.backlog_capacity})",
        f"playbook         : {report.playbook.name}  "
        f"(seed {report.seed}, {len(report.playbook.rules)} rule(s))",
        f"detection        : "
        + (
            f"alert fired, first CUSUM alarm at "
            f"t={detection.get('first_alarm_time'):.0f}s"
            if detection.get("alarmed")
            else "no alarm"
        ),
        f"mitigation       : "
        + (
            f"first action applied at t={mitigation:.0f}s"
            if mitigation is not None
            else "never applied"
        ),
    ]
    for label in ("unmitigated", "mitigated"):
        rates = doc[label]["phase_rates"]

        def fmt(value: Optional[float]) -> str:
            return "n/a" if value is None else format(value, ".3f")

        lines.append(
            f"{label:<17}: completion pre={fmt(rates['pre_attack'])} "
            f"attack={fmt(rates['attack'])} "
            f"post={fmt(rates['post_attack'])}  "
            f"(backlog peak {doc[label]['backlog_peak']})"
        )
    ratio = recovery["recovery_ratio"]
    lines.append(
        f"recovery         : window rate "
        f"{recovery['mitigated_window_rate']} vs "
        f"{recovery['unmitigated_window_rate']} unmitigated "
        f"(ratio {'n/a' if ratio is None else format(ratio, '.2f')}, "
        f"need >= {report.recovery_factor:g}x)"
    )
    response = doc["mitigated"]["response"] or {}
    lines.append(
        f"collateral       : peak "
        f"{response.get('peak_collateral', 0.0):.6f} "
        f"(cap {recovery['collateral_cap']:g}; "
        f"{response.get('aborted', 0)} aborted)"
    )
    lines.append(
        "verdict          : "
        + (
            "victim recovered within collateral cap"
            if recovery["passed"]
            else "RESPONSE DID NOT MEET THE BAR"
        )
    )
    return "\n".join(lines)
