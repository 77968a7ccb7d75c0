"""The chaos campaign: detection quality under injected faults.

Runs the same flooding scenario twice — a fault-free baseline and a
faulted arm driven by a :class:`~repro.faults.injector.FaultInjector`
plan — and asserts a *degradation envelope*: the faulted detector must
still catch the flood, with a detection delay within a bounded multiple
of the baseline's.  That turns "the detector survives chaos" from a
demo into a regression test.

The faulted arm exercises the full robustness machinery end to end:
perturbed counts flow through :meth:`SynDog.observe_period`, lost
reports through :meth:`SynDog.observe_missing_period` (degraded mode),
and each crash discards the live agent and rebuilds it with
:meth:`SynDog.restore` from the last per-period checkpoint — exactly
what the federation supervisor does for a crashed member.

Everything is a pure function of (site, seed, schedule, scenario
parameters): :meth:`ChaosReport.to_dict` contains no timestamps and
sorts every mapping, so two runs with the same inputs produce
byte-identical reports — the reproducibility contract CI diffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..attack.flooder import FloodSource
from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import DetectionRecord, SynDog
from ..faults.injector import FaultInjector, InjectionPlan
from ..faults.schedule import FaultSchedule
from ..obs.runtime import Instrumentation
from ..trace.mixer import AttackWindow, mix_flood_into_counts
from ..trace.profiles import get_profile
from ..trace.synthetic import generate_count_trace

__all__ = [
    "ChaosReport",
    "ChaosArm",
    "ChaosArmTask",
    "run_chaos_arm",
    "run_chaos_campaign",
    "chaos_alerts_document",
    "render_chaos_report",
]


@dataclass(frozen=True)
class ChaosArm:
    """Detection outcome of one arm (baseline or faulted)."""

    periods: int
    alarmed: bool
    first_alarm_time: Optional[float]
    detection_delay_periods: Optional[float]
    max_statistic: float
    degraded_periods: int = 0
    restarts: int = 0

    def to_dict(self) -> dict:
        return {
            "alarmed": self.alarmed,
            "degraded_periods": self.degraded_periods,
            "detection_delay_periods": self.detection_delay_periods,
            "first_alarm_time": self.first_alarm_time,
            "max_statistic": round(self.max_statistic, 9),
            "periods": self.periods,
            "restarts": self.restarts,
        }


@dataclass(frozen=True)
class ChaosReport:
    """The full, deterministic record of one chaos campaign."""

    site: str
    seed: int
    schedule: FaultSchedule
    rate: float
    attack_start: float
    attack_duration: float
    duration: float
    max_delay_ratio: float
    baseline: ChaosArm
    faulted: ChaosArm
    faults_injected: Dict[str, int]
    missing_periods: int
    perturbed_periods: int

    @property
    def delay_ratio(self) -> Optional[float]:
        """Faulted delay over baseline delay, with a one-period floor on
        the denominator so an instant baseline cannot make any faulted
        delay look unbounded."""
        baseline = self.baseline.detection_delay_periods
        faulted = self.faulted.detection_delay_periods
        if baseline is None or faulted is None:
            return None
        return faulted / max(baseline, 1.0)

    @property
    def within_envelope(self) -> bool:
        """Both arms alarm, and the faulted delay stays within
        ``max_delay_ratio`` of the baseline."""
        ratio = self.delay_ratio
        return (
            self.baseline.alarmed
            and self.faulted.alarmed
            and ratio is not None
            and ratio <= self.max_delay_ratio
        )

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def to_dict(self) -> dict:
        """Deterministic, timestamp-free JSON image — byte-identical
        across runs with the same (site, seed, schedule, scenario)."""
        ratio = self.delay_ratio
        return {
            "scenario": {
                "site": self.site,
                "seed": self.seed,
                "rate": self.rate,
                "attack_start": self.attack_start,
                "attack_duration": self.attack_duration,
                "duration": self.duration,
                "max_delay_ratio": self.max_delay_ratio,
            },
            "schedule": self.schedule.to_dict(),
            "baseline": self.baseline.to_dict(),
            "faulted": self.faulted.to_dict(),
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "missing_periods": self.missing_periods,
            "perturbed_periods": self.perturbed_periods,
            "delay_ratio": None if ratio is None else round(ratio, 9),
            "within_envelope": self.within_envelope,
        }


def _summarize_arm(
    records: List[DetectionRecord],
    attack_start: float,
    period: float,
    restarts: int = 0,
) -> ChaosArm:
    first = next((record for record in records if record.alarm), None)
    delay = None
    if first is not None:
        delay = max(0.0, first.end_time - attack_start) / period
    return ChaosArm(
        periods=len(records),
        alarmed=first is not None,
        first_alarm_time=None if first is None else first.end_time,
        detection_delay_periods=delay,
        max_statistic=max(
            (record.statistic for record in records), default=0.0
        ),
        degraded_periods=sum(1 for record in records if record.degraded),
        restarts=restarts,
    )


def _run_faulted_arm(
    plan: InjectionPlan,
    parameters: SynDogParameters,
    staleness_cap: int,
    obs: Optional[Instrumentation],
) -> Tuple[List[DetectionRecord], int]:
    """Drive a SynDog through an injection plan, realizing crashes as
    checkpoint-restore cycles with an outage of missed periods."""
    dog = SynDog(
        parameters=parameters,
        staleness_cap=staleness_cap,
        obs=obs,
        name="chaos-faulted",
    )
    crash_at = {crash.period_index: crash for crash in plan.crashes}
    checkpoint = dog.checkpoint()
    records: List[DetectionRecord] = []
    restarts = 0
    outage_remaining = 0
    for action in plan.actions:
        crash = crash_at.get(action.period_index)
        if crash is not None:
            # The process dies: live state is gone, the supervisor
            # rebuilds the agent from the last checkpoint, and the
            # periods elapsing during the restart go unreported.
            dog = SynDog.restore(checkpoint, obs=obs, name="chaos-faulted")
            restarts += 1
            outage_remaining = max(outage_remaining, crash.outage_periods)
        if outage_remaining > 0:
            outage_remaining -= 1
            records.append(dog.observe_missing_period())
        elif action.kind == "missing":
            records.append(dog.observe_missing_period())
        else:
            records.append(
                dog.observe_period(
                    action.syn, action.synack, start_time=action.start_time
                )
            )
        checkpoint = dog.checkpoint()
    return records, restarts


@dataclass(frozen=True)
class ChaosArmTask:
    """One arm's full scenario description — a picklable grid item for
    :mod:`repro.parallel`.  Each arm regenerates the mixed trace from
    the scenario (deterministic, so both arms see identical counts
    without sharing memory)."""

    arm: str  #: "baseline" | "faulted"
    site: str
    seed: int
    schedule: FaultSchedule
    rate: float
    attack_start: float
    attack_duration: float
    duration: float
    parameters: SynDogParameters
    staleness_cap: int


def run_chaos_arm(task: ChaosArmTask, obs: Optional[Instrumentation] = None) -> dict:
    """Run one arm end to end; returns the summarized arm plus the
    injection bookkeeping (empty for the baseline)."""
    profile = get_profile(task.site)
    background = generate_count_trace(
        profile, seed=task.seed,
        period=task.parameters.observation_period,
        duration=task.duration,
    )
    mixed = mix_flood_into_counts(
        background,
        FloodSource(pattern=task.rate),
        AttackWindow(task.attack_start, task.attack_duration),
    )
    period = task.parameters.observation_period
    if task.arm == "baseline":
        # Clean inputs, uninstrumented control.
        dog = SynDog(parameters=task.parameters, name="chaos-baseline")
        result = dog.observe_counts(mixed.counts)
        return {
            "site": profile.name,
            "arm": _summarize_arm(
                list(result.records), task.attack_start, period
            ),
            "injected": {},
            "missing_periods": 0,
            "perturbed_periods": 0,
        }
    injector = FaultInjector(task.schedule, seed=task.seed, obs=obs)
    plan = injector.plan_counts(mixed)
    records, restarts = _run_faulted_arm(
        plan, task.parameters, task.staleness_cap, obs
    )
    return {
        "site": profile.name,
        "arm": _summarize_arm(
            records, task.attack_start, period, restarts=restarts
        ),
        "injected": dict(injector.injected),
        "missing_periods": plan.missing_periods,
        "perturbed_periods": plan.perturbed_periods,
    }


def run_chaos_campaign(
    site: str = "auckland",
    seed: int = 42,
    schedule: Optional[FaultSchedule] = None,
    rate: float = 5.0,
    attack_start: float = 360.0,
    attack_duration: float = 600.0,
    duration: float = 1800.0,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    staleness_cap: int = 3,
    max_delay_ratio: float = 2.0,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
) -> ChaosReport:
    """Run the baseline and faulted arms and bound the degradation.

    The default scenario mirrors the telemetry smoke run: an
    Auckland-sized site (detection floor ~1.75 SYN/s), a 5 SYN/s flood
    from t = 360 s, 30 minutes of traffic.  Only the faulted arm is
    instrumented (``obs``), so exported fault and degradation counters
    describe the chaos run, not the control.

    The two arms run as :mod:`repro.parallel` grid items (each
    regenerating the deterministic trace), in this process at
    ``workers=1``; the report is byte-identical at any ``workers``.
    """
    if schedule is None:
        from ..faults.schedule import DEFAULT_SCHEDULE, get_schedule

        schedule = get_schedule(DEFAULT_SCHEDULE)
    tasks = [
        ChaosArmTask(
            arm=arm, site=site, seed=seed, schedule=schedule, rate=rate,
            attack_start=attack_start, attack_duration=attack_duration,
            duration=duration, parameters=parameters,
            staleness_cap=staleness_cap,
        )
        for arm in ("baseline", "faulted")
    ]

    from ..parallel import WorkPlan, run_plan

    baseline_result, faulted_result = run_plan(
        WorkPlan.partition(tasks), _chaos_arm_worker, workers=workers, obs=obs
    )
    return ChaosReport(
        site=baseline_result["site"],
        seed=seed,
        schedule=schedule,
        rate=rate,
        attack_start=attack_start,
        attack_duration=attack_duration,
        duration=duration,
        max_delay_ratio=max_delay_ratio,
        baseline=baseline_result["arm"],
        faulted=faulted_result["arm"],
        faults_injected=faulted_result["injected"],
        missing_periods=faulted_result["missing_periods"],
        perturbed_periods=faulted_result["perturbed_periods"],
    )


def _chaos_arm_worker(task: ChaosArmTask, obs: Instrumentation) -> dict:
    """Engine adapter: only the faulted arm instruments ("the control
    stays dark")."""
    return run_chaos_arm(task, obs=obs if task.arm == "faulted" else None)


def chaos_alerts_document(
    obs: Instrumentation,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
) -> dict:
    """The campaign's deterministic alerts document: the builtin rule
    set replayed over the run's telemetry history.

    Replay walks the (possibly worker-merged) store's logical sample
    times, so the same scenario yields byte-identical output at any
    ``--workers`` value — what ``repro chaos --alerts-out`` writes and
    CI byte-compares.
    """
    from ..obs.alerts import builtin_rules, replay_rules

    manager = replay_rules(
        builtin_rules(threshold=parameters.threshold), obs.tsdb
    )
    return manager.to_dict()


def render_chaos_report(report: ChaosReport) -> str:
    """Human-readable summary of a campaign (the CLI's stdout)."""
    lines = [
        f"site             : {report.site}  "
        f"(flood {report.rate:g} SYN/s from t={report.attack_start:.0f}s)",
        f"schedule         : {report.schedule.name}  (seed {report.seed})",
        f"faults injected  : {report.total_faults} "
        f"({', '.join(f'{kind}={count}' for kind, count in sorted(report.faults_injected.items())) or 'none'})",
        f"missing periods  : {report.missing_periods} lost reports; "
        f"{report.faulted.degraded_periods} degraded periods; "
        f"{report.faulted.restarts} restart(s)",
    ]
    for label, arm in (("baseline", report.baseline), ("faulted", report.faulted)):
        if arm.alarmed:
            lines.append(
                f"{label:<17}: ALARM at t={arm.first_alarm_time:.0f}s "
                f"(delay {arm.detection_delay_periods:.2f} periods)"
            )
        else:
            lines.append(
                f"{label:<17}: no alarm "
                f"(max statistic {arm.max_statistic:.4f})"
            )
    ratio = report.delay_ratio
    lines.append(
        f"delay ratio      : "
        f"{'n/a' if ratio is None else format(ratio, '.3f')} "
        f"(envelope <= {report.max_delay_ratio:g})"
    )
    lines.append(
        "verdict          : "
        + ("degradation within envelope"
           if report.within_envelope
           else "DEGRADATION EXCEEDS ENVELOPE")
    )
    return "\n".join(lines)
