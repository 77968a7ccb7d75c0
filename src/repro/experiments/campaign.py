"""Multi-agent campaign simulation (Section 4.2.3, made operational).

The paper's coverage argument is analytic: spreading an aggregate flood
V over A stub networks keeps each per-network rate f_i = V/A under the
local detection floor once A > V/f_min.  This module runs the actual
*fleet*: every participating stub network gets its own background
traffic and its own SYN-dog, the campaign's slaves are mixed in, and
the result reports what a federation of deployed agents would see —
how many dogs bark, how fast the first one barks, and what fraction of
the attack flow is attributable once the barking routers activate
ingress filtering.

Because stub networks are independent, each is simulated at count level
with its own seed; a campaign over hundreds of networks runs in
seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..attack.ddos import DDoSCampaign, TYPICAL_ATTACK_DURATION
from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import SynDog
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..trace.mixer import AttackWindow, mix_flood_into_counts
from ..trace.profiles import SiteProfile
from ..trace.synthetic import generate_count_trace
from .runner import attack_start_range_minutes

__all__ = [
    "CampaignResult",
    "NetworkOutcome",
    "NetworkTask",
    "simulate_campaign",
    "simulate_network",
]


@dataclass(frozen=True)
class NetworkOutcome:
    """One stub network's view of the campaign."""

    network_id: int
    flood_rate: float               #: f_i seen by this network's router
    detected: bool
    delay_periods: Optional[float]
    max_statistic: float


@dataclass(frozen=True)
class CampaignResult:
    """The federation's aggregate view."""

    aggregate_rate: float
    num_networks: int
    attack_start: float
    attack_duration: float
    outcomes: Tuple[NetworkOutcome, ...]

    @property
    def detection_fraction(self) -> float:
        """Fraction of participating networks whose SYN-dog alarmed —
        each alarm localizes one slave."""
        if not self.outcomes:
            return 0.0
        return sum(o.detected for o in self.outcomes) / len(self.outcomes)

    @property
    def first_alarm_delay(self) -> Optional[float]:
        """Periods until the *first* dog in the federation barks — the
        federation-level time to first actionable evidence."""
        delays = [
            o.delay_periods for o in self.outcomes
            if o.detected and o.delay_periods is not None
        ]
        return min(delays) if delays else None

    @property
    def attributable_rate(self) -> float:
        """Flood volume (SYN/s) whose sources are localized by alarmed
        routers — the traffic ingress filtering can cut at the source."""
        return sum(o.flood_rate for o in self.outcomes if o.detected)

    @property
    def simulated_rate(self) -> float:
        """Total flood rate of the simulated networks (equals the
        campaign's aggregate unless ``max_networks`` subsampled)."""
        return sum(o.flood_rate for o in self.outcomes)

    @property
    def attributable_fraction(self) -> float:
        """Fraction of the *simulated* flood volume that alarmed routers
        can attribute — under uniform subsampling this is an unbiased
        estimate of the campaign-wide fraction."""
        if self.simulated_rate <= 0:
            return 0.0
        return self.attributable_rate / self.simulated_rate


@dataclass(frozen=True)
class NetworkTask:
    """Everything one stub network's simulation depends on — a plain,
    picklable grid item for :mod:`repro.parallel`."""

    network_id: int
    profile: SiteProfile
    seed: int
    flood_rate: float
    sources: Tuple  #: FloodSources of this network's slaves
    attack_start: float
    attack_duration: float
    parameters: SynDogParameters


def simulate_network(
    task: NetworkTask,
    obs: Optional[Instrumentation] = None,
) -> NetworkOutcome:
    """Simulate one stub network: background + local slaves through its
    SYN-dog.  A pure function of the task (plus wall-clock telemetry),
    the work-plan item every shard runs."""
    obs = resolve_instrumentation(obs)
    network_start = time.perf_counter()
    window = AttackWindow(task.attack_start, task.attack_duration)
    attack_periods = (
        task.attack_duration / task.parameters.observation_period
    )
    background = generate_count_trace(
        task.profile,
        seed=task.seed,
        period=task.parameters.observation_period,
    )
    counts = background
    for source in task.sources:
        counts = mix_flood_into_counts(counts, source, window)
    result = SynDog(parameters=task.parameters).observe_counts(counts.counts)
    delay = result.detection_delay_periods(window.start)
    detected = delay is not None and delay <= attack_periods
    outcome = NetworkOutcome(
        network_id=task.network_id,
        flood_rate=task.flood_rate,
        detected=detected,
        delay_periods=delay if detected else None,
        max_statistic=result.max_statistic,
    )
    if obs.registry is not None:
        obs.registry.histogram(
            "campaign_network_seconds",
            "Wall-clock to simulate one stub network",
        ).observe(time.perf_counter() - network_start)
        obs.registry.counter(
            "campaign_networks_total",
            "Stub networks simulated, by verdict",
            ("detected",),
        ).labels(str(detected).lower()).inc()
    if obs.events is not None:
        obs.events.emit(
            "campaign_network",
            network_id=task.network_id,
            flood_rate=task.flood_rate,
            detected=detected,
            delay_periods=delay if detected else None,
            max_statistic=result.max_statistic,
        )
    return outcome


def simulate_campaign(
    campaign: DDoSCampaign,
    profile: SiteProfile,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    base_seed: int = 0,
    attack_start: Optional[float] = None,
    max_networks: Optional[int] = None,
    profile_selector=None,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
) -> CampaignResult:
    """Run every participating stub network's SYN-dog over the campaign.

    Parameters
    ----------
    campaign:
        The DDoS campaign (slaves grouped by stub network).
    profile:
        The site profile every stub network draws its background from
        (each with an independent seed — the homogeneous-fleet model;
        heterogeneous fleets can be composed by calling this per
        profile and merging).
    attack_start:
        Campaign start time; defaults to a seed-derived whole minute in
        the profile's paper range.
    max_networks:
        Simulate only the first N networks (a uniform subsample —
        useful to estimate the detection fraction of a multi-thousand-
        network campaign without simulating every one).
    profile_selector:
        Optional ``network_id -> SiteProfile`` callable for
        *heterogeneous* fleets (e.g. a mix of UNC- and Auckland-scale
        networks); overrides *profile* per network.  Real campaigns
        compromise hosts wherever they can, so the per-network floors —
        and thus which dogs bark — vary across the fleet.
    workers:
        Shard the network grid across this many processes
        (:mod:`repro.parallel`; ``None`` means every core).  Seeds,
        rates and the attack window are all fixed in the parent before
        sharding, so the result is byte-identical to ``workers=1``.
    """
    obs = resolve_instrumentation(obs)
    rng = random.Random(base_seed)
    if attack_start is None:
        lo, hi = attack_start_range_minutes(profile)
        attack_start = 60.0 * rng.randint(lo, hi)
    window = AttackWindow(attack_start, campaign.duration)

    network_ids = sorted({slave.stub_network_id for slave in campaign.slaves})
    if max_networks is not None:
        network_ids = network_ids[:max_networks]

    tasks: List[NetworkTask] = []
    for network_id in network_ids:
        local_profile = (
            profile_selector(network_id) if profile_selector else profile
        )
        if window.end > local_profile.duration:
            raise ValueError(
                f"attack window [{window.start}, {window.end}) exceeds the "
                f"{local_profile.duration}s trace of {local_profile.name} "
                f"(network {network_id}); pick an earlier attack_start"
            )
        tasks.append(
            NetworkTask(
                network_id=network_id,
                profile=local_profile,
                seed=base_seed * 100_003 + network_id,
                flood_rate=campaign.per_network_rate(network_id),
                sources=tuple(campaign.sources_in_network(network_id)),
                attack_start=window.start,
                attack_duration=window.duration,
                parameters=parameters,
            )
        )

    from ..parallel import WorkPlan, run_plan

    outcomes = run_plan(
        WorkPlan.partition(tasks), simulate_network, workers=workers, obs=obs
    )
    if obs.registry is not None:
        obs.registry.gauge(
            "campaign_detection_fraction",
            "Fraction of simulated networks whose SYN-dog alarmed",
        ).set(
            sum(o.detected for o in outcomes) / len(outcomes)
            if outcomes else 0.0
        )
    return CampaignResult(
        aggregate_rate=campaign.aggregate_rate,
        num_networks=len(network_ids),
        attack_start=window.start,
        attack_duration=window.duration,
        outcomes=tuple(outcomes),
    )
