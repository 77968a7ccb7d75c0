"""Parameter-sensitivity analysis over (a, N).

Supports the Section 4.2.3 tuning discussion with a full trade-off
surface instead of the single (0.2, 0.6) point the paper shows: for a
grid of drift/threshold pairs, measure

* the false-alarm rate on normal traffic (alarm onsets per trace), and
* the detection delay for a reference flood,

so an operator can pick the most sensitive setting with an acceptable
false-alarm budget — the procedure the paper sketches in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.cusum import cusum_statistic_series
from ..core.normalization import NormalizedDifference
from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..attack.flooder import FloodSource
from ..trace.events import CountTrace
from ..trace.mixer import AttackWindow, mix_flood_into_counts
from ..trace.profiles import SiteProfile
from ..trace.synthetic import generate_count_trace
from .metrics import estimate_false_alarm_time

__all__ = [
    "SensitivityCell",
    "SeriesTask",
    "sweep_parameters",
    "recommend_parameters",
]


@dataclass(frozen=True)
class SensitivityCell:
    """One (a, N) grid point's measurements."""

    drift: float
    threshold: float
    false_alarm_onsets: int        #: over all normal traces swept
    normal_periods: int
    detection_probability: float   #: for the reference flood
    mean_delay_periods: Optional[float]
    f_min: float                   #: Eq. 8 floor at the site's K̄

    @property
    def false_alarm_rate(self) -> float:
        """Alarm onsets per observed normal period."""
        if self.normal_periods == 0:
            return 0.0
        return self.false_alarm_onsets / self.normal_periods


def _normalized_series(trace: CountTrace, alpha: float) -> List[float]:
    """The X_n series for a count trace (shared across grid cells so the
    expensive part is computed once per trace, not once per cell)."""
    normalizer = NormalizedDifference(alpha=alpha)
    return [
        normalizer.observe(syn, synack) for syn, synack in trace.counts
    ]


@dataclass(frozen=True)
class SeriesTask:
    """One trace's normalization job — a picklable grid item for
    :mod:`repro.parallel` (trace synthesis + EWMA normalization is the
    sweep's expensive phase; the (a, N) grid loop over the finished
    series stays in the parent)."""

    kind: str  #: "normal" | "attack"
    profile: SiteProfile
    seed: int
    alpha: float
    period: float
    flood_rate: float = 0.0
    attack_start: float = 0.0
    attack_duration: float = 0.0


def _series_for_task(task: SeriesTask, obs=None) -> List[float]:
    trace: CountTrace = generate_count_trace(
        task.profile, seed=task.seed, period=task.period
    )
    if task.kind == "attack":
        trace = mix_flood_into_counts(
            trace,
            FloodSource(pattern=task.flood_rate),
            AttackWindow(task.attack_start, task.attack_duration),
        )
    return _normalized_series(trace, task.alpha)


def sweep_parameters(
    profile: SiteProfile,
    drifts: Sequence[float],
    thresholds: Sequence[float],
    flood_rate: float,
    num_normal_traces: int = 5,
    num_attack_trials: int = 5,
    attack_start: float = 360.0,
    attack_duration: float = 600.0,
    base_seed: int = 0,
    k_bar: Optional[float] = None,
    workers: Optional[int] = 1,
) -> List[SensitivityCell]:
    """Measure the (a, N) grid.

    The X_n series depends only on the EWMA (not on a or N), so each
    trace is normalized once and every grid cell re-runs only the O(n)
    CUSUM recursion — the sweep is cheap even on fine grids.

    ``workers`` shards the per-trace synthesis + normalization across
    processes (:mod:`repro.parallel`; ``None`` means every core, 1
    runs the shards in this process); each trace's seed is fixed up
    front, so the cells are identical at any ``workers``.
    """
    alpha = DEFAULT_PARAMETERS.ewma_alpha
    period = DEFAULT_PARAMETERS.observation_period
    site_k = k_bar if k_bar is not None else (
        profile.k_bar_target or profile.expected_k_bar(period)
    )

    tasks = [
        SeriesTask(
            kind="normal", profile=profile, seed=base_seed + i,
            alpha=alpha, period=period,
        )
        for i in range(num_normal_traces)
    ] + [
        SeriesTask(
            kind="attack", profile=profile, seed=base_seed + 1000 + i,
            alpha=alpha, period=period, flood_rate=flood_rate,
            attack_start=attack_start, attack_duration=attack_duration,
        )
        for i in range(num_attack_trials)
    ]

    from ..parallel import WorkPlan, run_plan

    series = run_plan(
        WorkPlan.partition(tasks), _series_for_task, workers=workers
    )
    normal_series = series[:num_normal_traces]
    attack_series = series[num_normal_traces:]

    attack_start_period = int(attack_start // period)
    attack_periods = attack_duration / period
    cells: List[SensitivityCell] = []
    for drift in drifts:
        for threshold in thresholds:
            onsets = 0
            periods = 0
            for series in normal_series:
                y = cusum_statistic_series(series, drift)
                estimate = estimate_false_alarm_time(y, threshold)
                onsets += estimate.false_alarms
                periods += estimate.observed_periods
            detected = 0
            delays: List[float] = []
            for series in attack_series:
                y = cusum_statistic_series(series, drift)
                alarm_index = next(
                    (i for i, value in enumerate(y) if value > threshold), None
                )
                if alarm_index is None or alarm_index < attack_start_period:
                    continue  # missed, or fired before the attack (false)
                delay = alarm_index - attack_start_period + 1
                if delay <= attack_periods:
                    detected += 1
                    delays.append(delay)
            cells.append(
                SensitivityCell(
                    drift=drift,
                    threshold=threshold,
                    false_alarm_onsets=onsets,
                    normal_periods=periods,
                    detection_probability=detected / max(len(attack_series), 1),
                    mean_delay_periods=(
                        sum(delays) / len(delays) if delays else None
                    ),
                    f_min=(drift * site_k / period),
                )
            )
    return cells


def recommend_parameters(
    cells: Sequence[SensitivityCell],
    max_false_alarm_rate: float = 0.0,
) -> Optional[SensitivityCell]:
    """The operator's pick: among cells within the false-alarm budget,
    the one with the lowest detection floor (ties broken by faster
    detection)."""
    admissible = [
        cell for cell in cells if cell.false_alarm_rate <= max_false_alarm_rate
    ]
    if not admissible:
        return None
    return min(
        admissible,
        key=lambda cell: (
            cell.f_min,
            cell.mean_delay_periods if cell.mean_delay_periods is not None else 1e9,
        ),
    )
