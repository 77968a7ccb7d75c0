"""The trace-driven simulation harness (Figure 6).

Reproduces the paper's experimental procedure exactly:

1. synthesize background traffic for a site profile (the paper replays
   the captured trace; we replay the calibrated synthetic equivalent);
2. superpose a constant-rate SYN flood of per-router rate f_i over a
   10-minute window whose start is drawn uniformly from the paper's
   per-site range (3–9 min for the half-hour UNC traces, 3–136 min for
   the three-hour Auckland traces, at whole minutes);
3. run the SYN-dog CUSUM pipeline over the mixed counts;
4. record whether the alarm fired inside the attack window and after
   how many observation periods.

``run_detection_sweep`` repeats this over seeds and aggregates into the
rows of Tables 2 and 3.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..attack.ddos import TYPICAL_ATTACK_DURATION
from ..attack.flooder import FloodSource
from ..attack.patterns import RatePattern
from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import DetectionResult, SynDog
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..trace.events import CountTrace
from ..trace.mixer import AttackWindow, mix_flood_into_counts
from ..trace.profiles import AUCKLAND, UNC, SiteProfile
from ..trace.synthetic import generate_count_trace
from .metrics import DetectionPerformance, TrialOutcome, aggregate_trials

__all__ = [
    "attack_start_range_minutes",
    "run_normal_operation",
    "run_detection_trial",
    "run_detection_sweep",
    "sweep_trial_configs",
    "DetectionTrialConfig",
]


def attack_start_range_minutes(profile: SiteProfile) -> Tuple[int, int]:
    """The paper's attack-start windows: 3–9 minutes into the half-hour
    UNC traces, 3–136 minutes into the three-hour Auckland traces.
    Other/shorter profiles get a window that keeps the whole 10-minute
    attack inside the trace."""
    if profile.name == "Auckland":
        return (3, 136)
    if profile.name == "UNC":
        return (3, 9)
    latest = int(profile.duration / 60.0) - int(TYPICAL_ATTACK_DURATION / 60.0) - 1
    return (3, max(3, latest))


def run_normal_operation(
    profile: SiteProfile,
    seed: int,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    duration: Optional[float] = None,
) -> DetectionResult:
    """Run the detector over pure background traffic (the Figure 5
    experiment: y_n should stay far below N and raise no alarm)."""
    trace = generate_count_trace(
        profile, seed=seed, period=parameters.observation_period, duration=duration
    )
    detector = SynDog(parameters=parameters)
    return detector.observe_counts(trace.counts)


@dataclass(frozen=True)
class DetectionTrialConfig:
    """Parameters of one mixed-traffic trial."""

    profile: SiteProfile
    flood_rate: float
    seed: int
    attack_start: float
    attack_duration: float = TYPICAL_ATTACK_DURATION
    parameters: SynDogParameters = DEFAULT_PARAMETERS
    pattern: Optional[RatePattern] = None  #: overrides constant f_i


def run_detection_trial(
    config: DetectionTrialConfig,
    obs: Optional[Instrumentation] = None,
) -> TrialOutcome:
    """One full Figure 6 trial; see module docstring.

    With instrumentation enabled the trial's wall-clock (generation +
    mixing + detection, measured on :func:`time.perf_counter`) lands in
    the ``trial_seconds{site}`` histogram and a ``trial`` event.  The
    inner detector deliberately stays on the null default — per-period
    events from thousands of Monte-Carlo trials would drown the log.
    """
    obs = resolve_instrumentation(obs)
    trial_start = time.perf_counter()
    profile = config.profile
    parameters = config.parameters
    background = generate_count_trace(
        profile, seed=config.seed, period=parameters.observation_period
    )
    flood = FloodSource(
        pattern=(
            config.pattern if config.pattern is not None else float(config.flood_rate)
        )
    )
    window = AttackWindow(config.attack_start, config.attack_duration)
    if window.end > background.duration:
        raise ValueError(
            f"attack window [{window.start}, {window.end}) exceeds the "
            f"{background.duration}s trace"
        )
    mixed = mix_flood_into_counts(background, flood, window)
    detector = SynDog(parameters=parameters)
    result = detector.observe_counts(mixed.counts)
    delay = result.detection_delay_periods(window.start)
    # Count a detection only when the alarm fires during the attack
    # (alarms after the flood ends would be useless operationally, and
    # the paper's detection probabilities are per-attack).
    attack_periods = config.attack_duration / parameters.observation_period
    detected = delay is not None and delay <= attack_periods
    outcome = TrialOutcome(
        site=profile.name,
        flood_rate=config.flood_rate,
        seed=config.seed,
        attack_start=window.start,
        attack_duration=config.attack_duration,
        detected=detected,
        delay_periods=delay if detected else None,
        max_statistic=result.max_statistic,
    )
    elapsed = time.perf_counter() - trial_start
    if obs.registry is not None:
        obs.registry.histogram(
            "trial_seconds",
            "Wall-clock per detection trial",
            ("site",),
        ).labels(profile.name).observe(elapsed)
        obs.registry.counter(
            "trials_total",
            "Detection trials run, by site and verdict",
            ("site", "detected"),
        ).labels(profile.name, str(detected).lower()).inc()
    if obs.events is not None:
        obs.events.emit(
            "trial",
            site=profile.name,
            flood_rate=config.flood_rate,
            seed=config.seed,
            attack_start=window.start,
            detected=detected,
            delay_periods=outcome.delay_periods,
            max_statistic=result.max_statistic,
            wall_seconds=elapsed,
        )
    return outcome


def sweep_trial_configs(
    profile: SiteProfile,
    flood_rates: Sequence[float],
    num_trials: int = 20,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    attack_duration: float = TYPICAL_ATTACK_DURATION,
) -> List[DetectionTrialConfig]:
    """The sweep's full (rate, trial) grid, in canonical serial order.

    Every per-trial random draw — the seed, the attack-start minute —
    is made *here*, in the parent, so the grid is a pure function of
    the sweep arguments and can be dealt to any number of workers
    without perturbing a single RNG stream.
    """
    start_lo, start_hi = attack_start_range_minutes(profile)
    configs: List[DetectionTrialConfig] = []
    for rate in flood_rates:
        # NOTE: not Python's hash() — string hashing is randomized per
        # process, which would make the sweep non-reproducible between
        # runs.  crc32 over a canonical string is stable everywhere.
        start_seed = zlib.crc32(
            f"{profile.name}:{rate}:{base_seed}".encode("utf-8")
        )
        start_rng = random.Random(start_seed)
        for trial in range(num_trials):
            start_minute = start_rng.randint(start_lo, start_hi)
            configs.append(
                DetectionTrialConfig(
                    profile=profile,
                    flood_rate=rate,
                    seed=base_seed + trial,
                    attack_start=60.0 * start_minute,
                    attack_duration=attack_duration,
                    parameters=parameters,
                )
            )
    return configs


def run_detection_sweep(
    profile: SiteProfile,
    flood_rates: Sequence[float],
    num_trials: int = 20,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    attack_duration: float = TYPICAL_ATTACK_DURATION,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
) -> List[DetectionPerformance]:
    """The Table 2 / Table 3 experiment: sweep f_i, many randomized
    trials each, aggregate probability and mean delay.

    ``workers`` shards the (rate, trial) grid across processes via
    :mod:`repro.parallel` (1 runs the shards in this process,
    ``None`` means every core); every trial's seed and attack start
    are fixed by :func:`sweep_trial_configs` before sharding, so the
    rows — and the observability stream, wall-clock fields aside — are
    the same at any ``workers``.
    """
    obs = resolve_instrumentation(obs)
    configs = sweep_trial_configs(
        profile, flood_rates, num_trials, parameters, base_seed,
        attack_duration,
    )
    from ..parallel import WorkPlan, run_plan

    outcomes = run_plan(
        WorkPlan.partition(configs), run_detection_trial,
        workers=workers, obs=obs,
    )
    # The grid is rate-major (sweep_trial_configs), so row i's trials
    # are the i-th block of num_trials outcomes.
    rows: List[DetectionPerformance] = []
    for i, rate in enumerate(flood_rates):
        block = outcomes[i * num_trials:(i + 1) * num_trials]
        rows.append(aggregate_trials(rate, block))
    return rows
