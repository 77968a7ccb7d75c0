"""The soak campaign: days of continuous operation, judged by SLOs.

SYN-dog's claim is an always-on sentinel — CUSUM keeps the false-alarm
budget bounded over indefinite operation (the Eq. 8 operating point),
not over a half-hour trace.  The soak harness runs the claim at that
horizon: simulated **days** are cut into fixed-length *epochs*, and
every epoch drives the full production loop —

    synthesize → detect → checkpoint → restore → continue

— with attack windows on a fixed cadence (every 5th epoch floods),
fault bursts on another (every 5th epoch loses reports, once within and
once beyond the staleness cap), and a mid-epoch checkpoint/restore
whose continuation is compared bit-for-bit against an uninterrupted
reference detector.

Epochs shard over ``--workers`` through the standard WorkPlan/engine
machinery: the shard layout is a pure function of the epoch count, so
the final soak document is byte-identical at any worker count.  Each
epoch feeds ground-truth indicator series (``soak_false_alarm``,
``soak_detection_miss``, ``soak_detection_latency_periods``) into the
shard store; after the merge the parent

* replays the per-epoch detector trajectories into one **long-lived
  bounded store + flight recorder** and samples the resource ledger
  (:mod:`repro.obs.ledger`) at every epoch boundary — the occupancy
  trajectory whose per-day high-water marks must stay flat
  (``BENCH_soak.json`` gates growth at 5%);
* evaluates the builtin SLOs (:mod:`repro.obs.slo`) as multi-window
  burn rates at every epoch boundary (the burn timeline) and at the
  final watermark (the verdicts);
* replays the builtin + SLO alert rules over the merged store at epoch
  boundaries into a deterministic alerts document.

Each epoch times its detect, checkpoint and restore phases through a
per-epoch timers-mode :class:`~repro.obs.profiler.Profiler`, one
stage per phase.  The wall-clock totals ride the ``soak_epoch`` event
as ``span_seconds`` — excluded from the canonical projection like
every timing — while the *counts* land in the JSON report.

Everything in :meth:`SoakReport.to_dict` is a pure function of the
scenario; no timestamps, mappings sorted — the byte-identity contract
CI diffs across worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..attack.patterns import ConstantRate
from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import SynDog
from ..obs import ledger
from ..obs.profiler import Profiler
from ..obs.recorder import FlightRecorder
from ..obs.runtime import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    enabled_instrumentation,
)
from ..obs.slo import SLOEngine, builtin_slos
from ..obs.tsdb import TimeSeriesDB, TrajectoryWriter
from ..trace.mixer import AttackWindow, mix_flood_into_counts
from ..trace.profiles import get_profile
from ..trace.synthetic import generate_count_trace

__all__ = [
    "SoakEpochTask",
    "SoakReport",
    "run_soak_epoch",
    "run_soak_campaign",
    "soak_alerts_document",
    "render_soak_report",
    "soak_epochs",
    "SECONDS_PER_DAY",
]

SECONDS_PER_DAY = 86400.0

#: Epoch cadences (attack on one residue, faults on another — both
#: divide the epochs-per-day evenly, so every simulated day sees the
#: identical pattern and cross-day ledger comparisons are like-for-like).
_ATTACK_EVERY = 5
_ATTACK_PHASE = 2
_FAULT_EVERY = 5
_FAULT_PHASE = 4

_AGENT = "soak"
_ROUND = 9


@dataclass(frozen=True)
class SoakEpochTask:
    """One epoch's full scenario — a picklable grid item.

    Every field is derived from the campaign arguments; the worker
    regenerates its traffic deterministically from
    ``derive_seed("soak", seed, epoch_index)``.
    """

    epoch_index: int
    site: str
    seed: int
    periods_per_epoch: int
    parameters: SynDogParameters
    staleness_cap: int
    attack: bool
    fault: bool
    rate: float
    attack_start_period: int
    attack_duration_periods: int
    latency_target_periods: int
    grace_periods: int
    checkpoint_period: int

    @property
    def epoch_seconds(self) -> float:
        return self.periods_per_epoch * self.parameters.observation_period

    @property
    def offset(self) -> float:
        """Absolute start time of this epoch on the campaign clock."""
        return self.epoch_index * self.epoch_seconds


def _fault_periods(task: SoakEpochTask) -> Tuple[int, ...]:
    """Local period indices whose reports are lost in a fault epoch:
    one burst the staleness cap bridges (carry-forward) and one it does
    not (hold) — both degraded-mode branches, every fault epoch."""
    if not task.fault:
        return ()
    cap = task.staleness_cap
    n = task.periods_per_epoch
    short_at = min(n // 5, n - 1)
    long_at = min((3 * n) // 5, n - 1)
    short = range(short_at, min(short_at + cap, n))
    long = range(long_at, min(long_at + cap + 2, n))
    return tuple(sorted(set(short) | set(long)))


def _attacked_periods(task: SoakEpochTask) -> Tuple[int, ...]:
    """Local periods overlapping the attack window (ground truth)."""
    if not task.attack:
        return ()
    start = task.attack_start_period
    end = min(start + task.attack_duration_periods, task.periods_per_epoch)
    return tuple(range(start, end))


def run_soak_epoch(
    task: SoakEpochTask, obs: Optional[Instrumentation] = None
) -> Dict[str, Any]:
    """One epoch end to end: generate traffic, run the checkpointed
    subject against an uninterrupted reference, score ground truth,
    feed indicator series, and return a picklable payload."""
    from ..parallel import derive_seed

    obs = obs if obs is not None else NULL_INSTRUMENTATION
    params = task.parameters
    t0 = params.observation_period
    offset = task.offset
    timers = Profiler(mode="timers")
    detect, checkpoint, restore = (
        timers.stage(name, sample_every=1)
        for name in ("soak.detect", "soak.checkpoint", "soak.restore")
    )

    profile = get_profile(task.site)
    background = generate_count_trace(
        profile,
        seed=derive_seed("soak", task.seed, task.epoch_index),
        period=t0,
        duration=task.epoch_seconds,
    )
    trace = background
    if task.attack:
        trace = mix_flood_into_counts(
            background,
            ConstantRate(task.rate),
            AttackWindow(
                task.attack_start_period * t0,
                task.attack_duration_periods * t0,
            ),
        )
    counts = list(trace.counts)[: task.periods_per_epoch]
    missing = frozenset(_fault_periods(task))

    def feed(dog: SynDog, i: int) -> Any:
        start_time = offset + i * t0
        if i in missing:
            return dog.observe_missing_period(start_time=start_time)
        syn, synack = counts[i]
        return dog.observe_period(syn, synack, start_time=start_time)

    # Reference arm: same inputs, never interrupted, never instrumented.
    reference = SynDog(
        parameters=params, staleness_cap=task.staleness_cap, name=_AGENT,
    )
    reference_records = [
        feed(reference, i) for i in range(task.periods_per_epoch)
    ]

    # Subject arm: instrumented, checkpointed mid-epoch and rebuilt
    # from the checkpoint — the supervisor's restart path, every epoch.
    events = obs.events
    emitted_before = events.events_emitted if events is not None else 0
    subject = SynDog(
        parameters=params, staleness_cap=task.staleness_cap,
        obs=obs, name=_AGENT,
    )
    records = []
    token = detect.begin()
    for i in range(task.checkpoint_period):
        records.append(feed(subject, i))
    detect.end(token)
    token = checkpoint.begin()
    state = subject.checkpoint()
    checkpoint.end(token)
    token = restore.begin()
    subject = SynDog.restore(state, obs=obs, name=_AGENT)
    restore.end(token)
    token = detect.begin()
    for i in range(task.checkpoint_period, task.periods_per_epoch):
        records.append(feed(subject, i))
    detect.end(token)

    # Restore-continuity: the restored subject must continue the run
    # bit-identically to the uninterrupted reference.
    continuity_ok = records == reference_records

    # Ground truth scoring.
    attacked = set(_attacked_periods(task))
    if attacked:
        last_attacked = max(attacked)
        excused = attacked | set(
            range(last_attacked + 1, last_attacked + 1 + task.grace_periods)
        )
    else:
        excused = set()
    false_alarm_flags = [
        1.0 if (record.alarm and i not in excused) else 0.0
        for i, record in enumerate(records)
    ]
    detected_latency: Optional[float] = None
    if attacked:
        first_attacked = min(attacked)
        deadline = first_attacked + task.latency_target_periods
        for i, record in enumerate(records):
            if record.alarm and first_attacked <= i <= deadline:
                detected_latency = float(i - first_attacked)
                break

    # Indicator series (ground truth the SLO engine consumes).  All
    # values are pure functions of the scenario, so the merged store is
    # worker-invariant.
    tsdb = obs.tsdb
    if tsdb is not None:
        for i, flag in enumerate(false_alarm_flags):
            tsdb.append(
                "soak_false_alarm", {}, offset + (i + 1) * t0, flag
            )
        if attacked:
            window_end = offset + (max(attacked) + 1) * t0
            tsdb.append(
                "soak_detection_miss", {}, window_end,
                0.0 if detected_latency is not None else 1.0,
            )
            if detected_latency is not None:
                tsdb.append(
                    "soak_detection_latency_periods", {}, window_end,
                    detected_latency,
                )

    spans = {
        handle.name: {
            "count": handle.calls,
            "total_seconds": handle.wall_ns / 1e9,
        }
        for handle in timers.stages()
    }
    payload: Dict[str, Any] = {
        "epoch_index": task.epoch_index,
        "attack": task.attack,
        "fault": task.fault,
        "continuity_ok": continuity_ok,
        "alarm_periods": sum(1 for r in records if r.alarm),
        "false_alarms": int(sum(false_alarm_flags)),
        "degraded_periods": sum(1 for r in records if r.degraded),
        "detected": (detected_latency is not None) if task.attack else None,
        "latency_periods": detected_latency,
        "records": records,
        "spans": spans,
        "events_emitted": None,
    }
    if events is not None:
        events.emit(
            "soak_epoch",
            epoch=task.epoch_index,
            attack=task.attack,
            fault=task.fault,
            continuity_ok=continuity_ok,
            alarm_periods=payload["alarm_periods"],
            false_alarms=payload["false_alarms"],
            degraded_periods=payload["degraded_periods"],
            detected=payload["detected"],
            latency_periods=detected_latency,
            restores=1,
            span_counts={name: s["count"] for name, s in spans.items()},
            span_seconds={
                name: s["total_seconds"] for name, s in spans.items()
            },
        )
        payload["events_emitted"] = events.events_emitted - emitted_before
    return payload


def _soak_epoch_worker(
    task: SoakEpochTask, obs: Instrumentation
) -> Dict[str, Any]:
    """Engine adapter (module-level: crosses the process boundary)."""
    return run_soak_epoch(task, obs=obs)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakReport:
    """The full, deterministic record of one soak campaign."""

    site: str
    seed: int
    sim_days: int
    periods_per_epoch: int
    epochs: int
    parameters: SynDogParameters
    staleness_cap: int
    rate: float
    latency_target_periods: int
    grace_periods: int
    continuity_failures: Tuple[int, ...]
    restores: int
    attack_epochs: Tuple[int, ...]
    missed_epochs: Tuple[int, ...]
    latencies: Dict[int, float]
    false_alarms: int
    total_periods: int
    degraded_periods: int
    slo: Dict[str, Any]
    burn_timeline: List[Dict[str, Any]]
    flatness: Dict[str, Any]
    final_occupancy: Dict[str, float]
    alerts: Dict[str, Any]
    span_counts: Dict[str, int]
    span_seconds: Dict[str, float]
    events_emitted: int

    @property
    def continuity_ok(self) -> bool:
        return not self.continuity_failures

    @property
    def max_ledger_growth(self) -> Optional[float]:
        return self.flatness.get("max_growth")

    @property
    def healthy(self) -> bool:
        """The campaign's pass/fail: every restore continued
        bit-identically and no SLO is burning or exhausted."""
        return self.continuity_ok and self.slo.get("verdict") in (
            "ok", "no_data",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic, timestamp-free JSON image.  Span wall-clock
        seconds are deliberately absent — they can never be identical
        between two runs; the rendered report shows them instead."""
        epoch_seconds = (
            self.periods_per_epoch * self.parameters.observation_period
        )
        mean_latency = (
            sum(self.latencies.values()) / len(self.latencies)
            if self.latencies
            else None
        )
        return {
            "scenario": {
                "site": self.site,
                "seed": self.seed,
                "sim_days": self.sim_days,
                "periods_per_epoch": self.periods_per_epoch,
                "epochs": self.epochs,
                "epoch_seconds": epoch_seconds,
                "observation_period": self.parameters.observation_period,
                "threshold": self.parameters.threshold,
                "staleness_cap": self.staleness_cap,
                "rate": self.rate,
                "latency_target_periods": self.latency_target_periods,
                "grace_periods": self.grace_periods,
            },
            "continuity": {
                "epochs": self.epochs,
                "restores": self.restores,
                "failures": list(self.continuity_failures),
                "ok": self.continuity_ok,
            },
            "detection": {
                "attack_epochs": list(self.attack_epochs),
                "detected": len(self.latencies),
                "missed_epochs": list(self.missed_epochs),
                "latency_periods": {
                    str(epoch): round(latency, _ROUND)
                    for epoch, latency in sorted(self.latencies.items())
                },
                "mean_latency_periods": (
                    None if mean_latency is None
                    else round(mean_latency, _ROUND)
                ),
            },
            "false_alarms": {
                "count": self.false_alarms,
                "total_periods": self.total_periods,
            },
            "degraded_periods": self.degraded_periods,
            "slo": self.slo,
            "burn_timeline": self.burn_timeline,
            "ledger": {
                "flatness": self.flatness,
                "final_occupancy": {
                    name: self.final_occupancy[name]
                    for name in sorted(self.final_occupancy)
                },
            },
            "alerts": self.alerts,
            "spans": dict(sorted(self.span_counts.items())),
            "events_emitted": self.events_emitted,
            "healthy": self.healthy,
        }


def soak_epochs(
    sim_days: int, periods_per_epoch: int, rate: float, t0: float
) -> int:
    """The number of epochs a soak of these options runs; ValueError
    naming the first option out of range."""
    if sim_days < 1:
        raise ValueError(f"sim_days must be >= 1: {sim_days}")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be a finite SYN/s >= 0: {rate}")
    if periods_per_epoch < 1:
        raise ValueError(f"periods_per_epoch must be >= 1: {periods_per_epoch}")
    return sim_days * _epochs_per_day(periods_per_epoch, t0)


def _epochs_per_day(periods_per_epoch: int, t0: float) -> int:
    epoch_seconds = periods_per_epoch * t0
    per_day = SECONDS_PER_DAY / epoch_seconds
    if abs(per_day - round(per_day)) > 1e-9 or round(per_day) < 1:
        raise ValueError(
            f"periods_per_epoch={periods_per_epoch} (epoch "
            f"{epoch_seconds:g}s) must divide a simulated day evenly"
        )
    return int(round(per_day))


def run_soak_campaign(
    site: str = "auckland",
    seed: int = 42,
    sim_days: int = 2,
    periods_per_epoch: int = 288,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    staleness_cap: int = 3,
    rate: float = 5.0,
    latency_target_periods: int = 30,
    grace_periods: int = 45,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
) -> SoakReport:
    """Run *sim_days* of continuous operation and judge the result.

    The default scenario: Auckland-sized site, 96-minute epochs
    (288 periods of t0 = 20 s; 15 epochs per day), a 5 SYN/s flood in
    every 5th epoch, report-loss bursts in every 5th (offset so attack
    and fault epochs never coincide), a checkpoint/restore at every
    epoch's midpoint.  Epochs always execute through
    :func:`repro.parallel.run_plan` — at any ``workers`` value the
    shard layout, merge order, and therefore the report bytes are
    identical.  The soak judges itself against *obs*'s telemetry
    store, so a bundle without one is refused (ValueError).
    """
    from ..parallel import WorkPlan, run_plan

    t0 = parameters.observation_period
    epochs = soak_epochs(sim_days, periods_per_epoch, rate, t0)
    if obs is None:
        # A soak without an operator-supplied bundle still needs a
        # store to judge itself against — memory-only, no file sinks.
        obs = enabled_instrumentation(memory_events=True)
    elif obs.tsdb is None:
        raise ValueError("a soak needs a bundle with a telemetry store")
    attack_duration = max(1, min(15, periods_per_epoch // 4))
    attack_start = max(0, min(periods_per_epoch // 6, periods_per_epoch - attack_duration))
    tasks = [
        SoakEpochTask(
            epoch_index=epoch,
            site=site,
            seed=seed,
            periods_per_epoch=periods_per_epoch,
            parameters=parameters,
            staleness_cap=staleness_cap,
            attack=(epoch % _ATTACK_EVERY == _ATTACK_PHASE),
            fault=(epoch % _FAULT_EVERY == _FAULT_PHASE),
            rate=rate,
            attack_start_period=attack_start,
            attack_duration_periods=attack_duration,
            latency_target_periods=latency_target_periods,
            grace_periods=grace_periods,
            checkpoint_period=periods_per_epoch // 2,
        )
        for epoch in range(epochs)
    ]
    payloads = run_plan(
        WorkPlan.partition(tasks), _soak_epoch_worker,
        workers=workers, obs=obs,
    )

    epoch_seconds = periods_per_epoch * t0
    boundaries = [(epoch + 1) * epoch_seconds for epoch in range(epochs)]

    # ------------------------------------------------------------------
    # Long-lived store replay + resource ledger.
    #
    # Each shard held at most a few epochs, so no shard's occupancy
    # describes a process that ran for days.  The parent rebuilds that
    # process deterministically: every epoch's detector trajectory is
    # re-appended, in campaign order, into one bounded store and one
    # flight recorder, and the ledger samples their occupancy at each
    # epoch boundary — into the *parent* store (a self-sample would add
    # points to the structure under test).
    # ------------------------------------------------------------------
    recorder = obs.recorder
    replay_bundle = Instrumentation(
        tsdb=TimeSeriesDB(
            retention=obs.tsdb.retention, record_snapshots=False
        ),
        recorder=(
            FlightRecorder()
            if recorder is None
            else FlightRecorder(recorder.capacity, recorder.post_alarm_periods)
        ),
    )
    trajectory = TrajectoryWriter(replay_bundle.tsdb, _AGENT)
    for task, payload in zip(tasks, payloads):
        for record in payload["records"]:
            trajectory.write(
                record.end_time,
                float(record.syn_count - record.synack_count),
                record.x,
                record.statistic,
                record.alarm,
                record.degraded,
            )
            replay_bundle.recorder.record(
                _AGENT, record.snapshot(parameters.threshold), record
            )
        extra = {}
        if payload["events_emitted"] is not None:
            extra["obs_ledger_event_sink_depth"] = float(
                payload["events_emitted"]
            )
        ledger.sample(
            replay_bundle,
            boundaries[task.epoch_index],
            into=obs.tsdb,
            extra=extra,
        )
    flatness = ledger.ledger_flatness(obs.tsdb)

    # ------------------------------------------------------------------
    # SLO burn-rate timeline + final verdicts over the merged store.
    # ------------------------------------------------------------------
    engine = SLOEngine(builtin_slos())
    burn_timeline: List[Dict[str, Any]] = []
    for t in boundaries:
        doc = engine.record(obs.tsdb, at=t)
        burn_timeline.append(
            {
                "t": t,
                "verdict": doc["verdict"],
                "slos": {
                    entry["name"]: {
                        "verdict": entry["verdict"],
                        "budget_consumed": entry["budget_consumed"],
                    }
                    for entry in doc["slos"]
                },
            }
        )
    slo_doc = engine.evaluate(obs.tsdb, at=boundaries[-1])

    # Deterministic alerts document: builtin + SLO budget rules walked
    # over the epoch boundaries (the soak's reporting cadence).
    alerts_doc = soak_alerts_document(
        obs, parameters=parameters, times=boundaries
    )

    # Final live-parent occupancy — labeled apart from the replay
    # trajectory so the two ledgers stay separate series.
    final_occupancy = ledger.sample(
        obs,
        boundaries[-1],
        labels={"store": "live"},
    )

    # ------------------------------------------------------------------
    # Roll the per-epoch payloads up.
    # ------------------------------------------------------------------
    latencies = {
        p["epoch_index"]: p["latency_periods"]
        for p in payloads
        if p["latency_periods"] is not None
    }
    span_counts: Dict[str, int] = {}
    span_seconds: Dict[str, float] = {}
    for payload in payloads:
        for name, stats in payload["spans"].items():
            span_counts[name] = span_counts.get(name, 0) + stats["count"]
            span_seconds[name] = (
                span_seconds.get(name, 0.0) + stats["total_seconds"]
            )
    return SoakReport(
        site=get_profile(site).name,
        seed=seed,
        sim_days=sim_days,
        periods_per_epoch=periods_per_epoch,
        epochs=epochs,
        parameters=parameters,
        staleness_cap=staleness_cap,
        rate=rate,
        latency_target_periods=latency_target_periods,
        grace_periods=grace_periods,
        continuity_failures=tuple(
            p["epoch_index"] for p in payloads if not p["continuity_ok"]
        ),
        restores=len(payloads),
        attack_epochs=tuple(
            p["epoch_index"] for p in payloads if p["attack"]
        ),
        missed_epochs=tuple(
            p["epoch_index"]
            for p in payloads
            if p["attack"] and not p["detected"]
        ),
        latencies=latencies,
        false_alarms=sum(p["false_alarms"] for p in payloads),
        total_periods=sum(len(p["records"]) for p in payloads),
        degraded_periods=sum(p["degraded_periods"] for p in payloads),
        slo=slo_doc,
        burn_timeline=burn_timeline,
        flatness=flatness,
        final_occupancy=final_occupancy,
        alerts=alerts_doc,
        span_counts=span_counts,
        span_seconds=span_seconds,
        events_emitted=(
            obs.events.events_emitted if obs.events is not None else 0
        ),
    )


def soak_alerts_document(
    obs: Instrumentation,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    times: Optional[List[float]] = None,
) -> Dict[str, Any]:
    """Builtin + SLO budget-exhaustion rules evaluated over the merged
    store — at *times* (the soak passes epoch boundaries: a multi-day
    store holds thousands of per-period watermarks, and the boundary
    cadence is the soak's reporting grid) or, when omitted, at every
    retained watermark like the chaos replay."""
    from ..obs.alerts import AlertManager, builtin_rules, replay_rules

    rules = builtin_rules(threshold=parameters.threshold, slo=True)
    if times is None:
        return replay_rules(rules, obs.tsdb).to_dict()
    manager = AlertManager(rules=rules, tsdb=obs.tsdb)
    for t in times:
        manager.evaluate(t)
    if times:
        manager.close(times[-1])
    return manager.to_dict()


def render_soak_report(report: SoakReport) -> str:
    """Human-readable summary (the CLI's stdout) — the one place span
    wall-clock totals appear."""
    doc = report.to_dict()
    slo_lines = [
        f"  {entry['name']:<22} {entry['verdict']:<10} "
        f"budget_consumed={entry['budget_consumed']}"
        for entry in doc["slo"]["slos"]
    ]
    growth = report.max_ledger_growth
    span_lines = [
        f"  {name:<18} x{report.span_counts[name]}  "
        f"{report.span_seconds.get(name, 0.0):.3f}s total"
        for name in sorted(report.span_counts)
    ]
    lines = [
        f"site             : {report.site}  (seed {report.seed})",
        f"horizon          : {report.sim_days} simulated day(s), "
        f"{report.epochs} epochs x {report.periods_per_epoch} periods",
        f"continuity       : {report.restores} restore(s), "
        + ("all bit-identical" if report.continuity_ok
           else f"FAILED epochs {list(report.continuity_failures)}"),
        f"detection        : {len(report.latencies)}/"
        f"{len(report.attack_epochs)} attack windows caught"
        + (f", mean delay {sum(report.latencies.values()) / len(report.latencies):.1f} periods"
           if report.latencies else ""),
        f"false alarms     : {report.false_alarms} in "
        f"{report.total_periods} periods "
        f"({report.degraded_periods} degraded)",
        "slo verdicts     : " + doc["slo"]["verdict"],
        *slo_lines,
        f"ledger           : max high-water growth "
        + ("n/a" if growth is None else f"{100 * growth:.2f}%")
        + " across days",
        "spans            :",
        *span_lines,
        "verdict          : "
        + ("continuous operation healthy"
           if report.healthy else "SOAK UNHEALTHY"),
    ]
    return "\n".join(lines)
