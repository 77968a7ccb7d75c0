"""The SYN-dog agent: sniffers → normalization → CUSUM → decision.

This is the paper's contribution assembled end-to-end.  A
:class:`SynDog` ingests the packet streams at a leaf router's two
interfaces, aggregates per-period SYN / SYN-ACK counts, normalizes the
difference by the EWMA estimate of the mean SYN/ACK volume (Eq. 1),
feeds the normalized series into the non-parametric CUSUM test
(Eq. 2–4), and raises an alarm when the statistic crosses the flooding
threshold N.  Total state: two packet counters, one EWMA float, one
CUSUM float — O(1) regardless of traffic volume, which is why the agent
itself cannot be flooded.

Two ingestion styles are offered:

* packet level — :meth:`observe_outbound` / :meth:`observe_inbound`, for
  router integration and pcap replay;
* count level — :meth:`observe_period`, for trace-driven experiments
  that pre-aggregate counts (how the paper's simulations work).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from ..obs.runtime import (
    AgentSummary,
    Instrumentation,
    resolve_instrumentation,
)
from .cusum import NonParametricCusum
from .normalization import NormalizedDifference
from .parameters import DEFAULT_PARAMETERS, SynDogParameters
from .sniffer import CountExchange, PeriodReport, merge_directional_streams

if TYPE_CHECKING:
    from ..packet.packet import Packet

__all__ = ["SynDog", "DetectionRecord", "DetectionResult", "CHECKPOINT_VERSION"]

#: Version tag written into every checkpoint so a future format change
#: can refuse (or migrate) stale state instead of silently misreading it.
CHECKPOINT_VERSION = 3

#: Fallback agent names (``syndog-0``, ``syndog-1``, ...) so several
#: anonymous detectors sharing one flight recorder / event log stay
#: distinguishable.
_AGENT_SEQ = itertools.count()


class DetectionRecord(NamedTuple):
    """The agent's full view of one observation period.

    The one per-period record: the ``period`` event, the flight-recorder
    snapshot and the TSDB trajectory point are all derived from it.
    """

    period_index: int
    start_time: float
    end_time: float
    syn_count: int
    synack_count: int
    k_bar: float       #: K̄ after this period (X_n used the value before)
    x: float           #: normalized difference X_n = Δ_n / K̄
    statistic: float   #: CUSUM statistic y_n
    alarm: bool        #: decision d_N(y_n)
    degraded: bool = False  #: counts were carried forward / held, not observed

    def snapshot(self, threshold: float) -> Dict[str, Any]:
        """The period as the ``period`` event and the flight recorder
        carry it: the full trajectory point, threshold included, so an
        alarm_context replays on its own."""
        return {
            "period_index": self.period_index,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "syn": self.syn_count,
            "synack": self.synack_count,
            "k_bar": self.k_bar,
            "x": self.x,
            "statistic": self.statistic,
            "threshold": threshold,
            "alarm": self.alarm,
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class DetectionResult:
    """Summary of a complete run over a trace."""

    records: Tuple[DetectionRecord, ...]
    first_alarm_period: Optional[int]
    first_alarm_time: Optional[float]

    @property
    def alarmed(self) -> bool:
        return self.first_alarm_period is not None

    @property
    def statistics(self) -> List[float]:
        """The y_n series — what Figures 5, 7, 8 and 9 plot."""
        return [record.statistic for record in self.records]

    @property
    def max_statistic(self) -> float:
        return max((record.statistic for record in self.records), default=0.0)

    def detection_delay_periods(self, attack_start_time: float) -> Optional[float]:
        """Detection delay in observation periods after *attack_start_time*
        (the paper's Tables 2 and 3 metric), or None if no alarm fired.

        Delay is measured from attack start to the *end* of the period
        whose report triggered the alarm, in units of t0.
        """
        if self.first_alarm_period is None or self.first_alarm_time is None:
            return None
        return max(0.0, self.first_alarm_time - attack_start_time) / (
            self.records[0].end_time - self.records[0].start_time
        )


class SynDog:
    """A SYN-dog software agent for one leaf router.

    Parameters
    ----------
    parameters:
        The detector parameterization; defaults to the paper's universal
        constants (t0 = 20 s, a = 0.35, h = 0.7, N = 1.05).
    start_time:
        Timestamp at which the first observation period opens.
    initial_k:
        Optional warm-start value for K̄; when omitted the first
        period's SYN/ACK count initializes the estimate.
    staleness_cap:
        Degraded-mode bound: how many *consecutive* missing observation
        periods may be bridged by carrying the last observed counts
        forward (each such period is surfaced with ``degraded=True``).
        Beyond the cap the detector *holds* — the statistic freezes and
        K̄ stops updating — rather than keep re-feeding stale counts.
    name:
        The agent's identity in events, flight-recorder tapes and
        ``/healthz`` (a deployed agent uses its router's name);
        defaults to a process-unique ``syndog-<n>``.
    """

    def __init__(
        self,
        parameters: SynDogParameters = DEFAULT_PARAMETERS,
        start_time: float = 0.0,
        initial_k: Optional[float] = None,
        staleness_cap: int = 3,
        obs: Optional[Instrumentation] = None,
        name: Optional[str] = None,
    ) -> None:
        if staleness_cap < 0:
            raise ValueError(f"staleness_cap cannot be negative: {staleness_cap}")
        self.parameters = parameters
        self.staleness_cap = int(staleness_cap)
        self.name = name if name is not None else f"syndog-{next(_AGENT_SEQ)}"
        obs = resolve_instrumentation(obs)
        self.exchange = CountExchange(
            observation_period=parameters.observation_period,
            start_time=start_time,
            obs=obs,
        )
        self.normalizer = NormalizedDifference(
            alpha=parameters.ewma_alpha, initial_k=initial_k
        )
        self.cusum = NonParametricCusum(
            drift=parameters.drift, threshold=parameters.threshold
        )
        self._records: List[DetectionRecord] = []
        #: The running state every status view reads; unlike the records
        #: it survives a checkpoint.
        self.summary = AgentSummary()
        # Degradation bookkeeping: the last real counts (carry-forward
        # source), and how many periods in a row went missing.
        self._last_counts: Optional[Tuple[int, int]] = None
        self._consecutive_missing = 0
        # Per-period instruments; bound once (see repro.obs hot-path
        # contract).  Period cadence is t0 = 20 s, so the enabled cost
        # is negligible even on heavy traffic.  The detector-state
        # gauges are this agent's children of agent-labeled families,
        # so agents sharing one bundle each export their own value.
        registry = obs.registry
        if registry is not None:
            self._m_periods = registry.counter(
                "syndog_periods_total", "Observation periods processed"
            )
            self._m_syn = registry.counter(
                "syndog_syn_total", "Outbound SYNs aggregated over all periods"
            )
            self._m_synack = registry.counter(
                "syndog_synack_total",
                "Inbound SYN/ACKs aggregated over all periods",
            )
            self._m_transitions = registry.counter(
                "syndog_alarm_transitions_total",
                "Alarm state transitions",
                ("state",),
            )
            self._g_statistic = registry.gauge(
                "syndog_statistic", "Current CUSUM statistic y_n, by agent",
                ("agent",),
            ).labels(self.name)
            self._g_x = registry.gauge(
                "syndog_x", "Latest normalized difference X_n, by agent",
                ("agent",),
            ).labels(self.name)
            self._g_k_bar = registry.gauge(
                "syndog_k_bar",
                "Current EWMA estimate of SYN/ACKs per period, by agent",
                ("agent",),
            ).labels(self.name)
            self._g_alarm = registry.gauge(
                "syndog_alarm",
                "Current decision d_N (1 = flooding source), by agent",
                ("agent",),
            ).labels(self.name)
            self._m_degraded = registry.counter(
                "degraded_periods_total",
                "Observation periods handled in degraded mode "
                "(carried forward or held), by agent",
                ("agent",),
            ).labels(self.name)
        else:
            self._m_periods = None
            self._m_syn = None
            self._m_synack = None
            self._m_transitions = None
            self._g_statistic = None
            self._g_x = None
            self._g_k_bar = None
            self._g_alarm = None
            self._m_degraded = None
        self._events = obs.events
        self._recorder = obs.recorder
        self._tsdb = obs.tsdb
        self._trajectory = None
        if obs.tsdb is not None:  # with obs off, no obs implementation loads
            from ..obs.tsdb import TrajectoryWriter

            self._trajectory = TrajectoryWriter(obs.tsdb, self.name)
        self._alerts = obs.alerts
        # Per-period stage: always timed in timers mode (sample_every=1)
        # — period cadence is t0 = 20 s, clocks here are cheap.
        self._prof_cusum = (
            obs.profiler.stage("cusum.step", sample_every=1)
            if obs.profiler is not None
            else None
        )

    # ------------------------------------------------------------------
    # Count-level ingestion (trace-driven experiments)
    # ------------------------------------------------------------------
    def observe_period(
        self,
        syn_count: int,
        synack_count: int,
        start_time: Optional[float] = None,
    ) -> DetectionRecord:
        """Feed one observation period's aggregated counts.

        ``start_time`` defaults to the next contiguous period on the
        exchange's clock; when the caller supplies it (packet-level
        ingestion, warm-up-skipping wrappers) the period index is
        derived from it, counted from the clock's origin, so record
        indices and times always agree on one clock.
        """
        record = self._ingest(syn_count, synack_count, start_time, degraded=False)
        self._last_counts = (syn_count, synack_count)
        self._consecutive_missing = 0
        return record

    def observe_missing_period(
        self, start_time: Optional[float] = None
    ) -> DetectionRecord:
        """Handle one observation period whose report never arrived.

        A stalled sniffer, a lost IPC message or a restart gap must not
        silently reset (or silently skew) the change-point test, so
        missed periods are processed *explicitly*:

        * up to ``staleness_cap`` consecutive misses, the last observed
          counts are carried forward through the normal pipeline — the
          statistic keeps evolving on the best available estimate;
        * beyond the cap (or before any period was ever observed) the
          detector holds: the statistic and K̄ freeze and an empty
          record is emitted.

        Either way the record is flagged ``degraded=True`` and counted
        in ``degraded_periods_total``, so a chaos run (or a production
        incident) is visible in every export.
        """
        self._consecutive_missing += 1
        if (
            self._last_counts is None
            or self._consecutive_missing > self.staleness_cap
        ):
            return self._ingest(0, 0, start_time, degraded=True, hold=True)
        syn_count, synack_count = self._last_counts
        return self._ingest(syn_count, synack_count, start_time, degraded=True)

    def _ingest(
        self,
        syn_count: int,
        synack_count: int,
        start_time: Optional[float],
        degraded: bool,
        hold: bool = False,
    ) -> DetectionRecord:
        """Step the detector on one period's counts and emit its record.

        The period's index, start and end come from the exchange's
        clock: a caller-supplied start names the period nearest to it,
        and every period ends where the clock starts the next one.  The
        clock arithmetic is written out, not called through
        ``CountExchange.start_of``: this runs once per period.  With
        *hold* (a stale gap) the clock advances but the statistic and
        K̄ do not."""
        t0 = self.parameters.observation_period
        origin = self.exchange.origin
        if start_time is None:
            period_index = self.summary.periods
            start_time = origin + period_index * t0
        else:
            period_index = int(round((start_time - origin) / t0))
        cusum = self.cusum
        prof = self._prof_cusum
        if hold:
            x, statistic = 0.0, cusum.statistic
        elif prof is None:
            x = self.normalizer.observe(syn_count, synack_count)
            statistic = cusum.update(x)
        else:
            # One "cusum.step" = normalization (Δ_n → X_n) + CUSUM
            # update, attributed per period.
            token = prof.begin()
            x = self.normalizer.observe(syn_count, synack_count)
            statistic = cusum.update(x)
            prof.end(token, packets=1)
        record = DetectionRecord(
            period_index, start_time, origin + (period_index + 1) * t0,
            syn_count, synack_count, self.normalizer.k_bar, x, statistic,
            statistic > cusum.threshold, degraded,
        )
        self._emit_record(record)
        return record

    def _emit_record(self, record: DetectionRecord) -> None:
        self._records.append(record)
        summary = self.summary
        prev_alarm = summary.alarm
        summary.fold(record)
        # The fields, read once: this runs once per period.
        (period_index, _start, end_time, syn_count, synack_count, k_bar,
         x, statistic, alarm, degraded) = record
        if self._tsdb is not None:
            # One append: the pipeline snapshot *before* this period's
            # emissions (the parallel merge re-creates exactly this
            # watermark by ticking before re-emitting each period
            # event), then the full per-period trajectory point.
            self._tsdb.tick(end_time, self._trajectory.points(
                end_time, float(syn_count - synack_count), x, statistic,
                alarm, degraded,
            ))
        if self._m_periods is not None:
            self._m_periods.inc()
            self._m_syn.inc(syn_count)
            self._m_synack.inc(synack_count)
            self._g_statistic.set(statistic)
            self._g_x.set(x)
            self._g_k_bar.set(k_bar)
            self._g_alarm.set(1.0 if alarm else 0.0)
            if degraded:
                self._m_degraded.inc()
            if alarm != prev_alarm:
                self._m_transitions.labels(
                    "raised" if alarm else "cleared"
                ).inc()
        if self._events is not None or self._recorder is not None:
            # One dict: the period event's payload and the recorder's
            # tape entry.
            snapshot = record.snapshot(self.parameters.threshold)
        if self._events is not None:
            self._events.emit("period", snapshot, agent=self.name)
            if alarm != prev_alarm:
                self._events.emit(
                    "alarm_raised" if alarm else "alarm_cleared",
                    agent=self.name,
                    period_index=period_index,
                    time=end_time,
                    statistic=statistic,
                    k_bar=k_bar,
                )
        if self._recorder is not None:
            self._recorder.record(self.name, snapshot, record)
        if self._alerts is not None:
            # Rules see this period's samples: evaluate after the feed.
            self._alerts.evaluate(end_time)

    def observe_counts(
        self, counts: Iterable[Tuple[int, int]]
    ) -> DetectionResult:
        """Run over a whole pre-aggregated (SYN, SYN/ACK) count series."""
        for syn_count, synack_count in counts:
            self.observe_period(syn_count, synack_count)
        return self.result()

    # ------------------------------------------------------------------
    # Packet-level ingestion (router integration / pcap replay)
    # ------------------------------------------------------------------
    def _consume_reports(
        self, reports: Sequence[PeriodReport]
    ) -> List[DetectionRecord]:
        return [
            self.observe_period(
                report.syn_count, report.synack_count, start_time=report.start_time
            )
            for report in reports
        ]

    def observe_outbound(self, packet: Packet) -> List[DetectionRecord]:
        """Feed one packet crossing the outbound interface.  Returns the
        detection records for any periods that closed."""
        return self._consume_reports(self.exchange.observe_outbound(packet))

    def observe_inbound(self, packet: Packet) -> List[DetectionRecord]:
        """Feed one packet crossing the inbound interface."""
        return self._consume_reports(self.exchange.observe_inbound(packet))

    def observe_streams(
        self,
        outbound: Iterable[Packet],
        inbound: Iterable[Packet],
        end_time: Optional[float] = None,
    ) -> DetectionResult:
        """Replay two already-captured packet streams through the agent.

        The streams must each be time-ordered; they are merged lazily on
        timestamps (ties outbound-first), as the router would interleave
        them in real time, so a stream of any length runs in constant
        memory.
        """
        merged = merge_directional_streams(outbound, inbound)
        for packet, is_outbound in merged:
            if is_outbound:
                self.observe_outbound(packet)
            else:
                self.observe_inbound(packet)
        self.flush(end_time=end_time)
        return self.result()

    def flush(self, end_time: Optional[float] = None) -> List[DetectionRecord]:
        """Close the trailing observation period at end of stream."""
        return self._consume_reports(self.exchange.flush(end_time=end_time))

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def alarm(self) -> bool:
        """Current decision: is a SYN flooding source active in the stub
        network?"""
        return self.cusum.alarm

    @property
    def statistic(self) -> float:
        """Current CUSUM statistic y_n."""
        return self.cusum.statistic

    @property
    def k_bar(self) -> float:
        """Current estimate of the mean SYN/ACK volume per period."""
        return self.normalizer.k_bar

    @property
    def records(self) -> Tuple[DetectionRecord, ...]:
        return tuple(self._records)

    def result(self) -> DetectionResult:
        first_alarm = self.summary.first_alarm
        return DetectionResult(
            records=tuple(self._records),
            first_alarm_period=None if first_alarm is None else first_alarm.period_index,
            first_alarm_time=None if first_alarm is None else first_alarm.end_time,
        )

    @property
    def degraded_periods(self) -> int:
        """How many of this agent's periods were produced in degraded
        mode (carried forward or held), restarts included."""
        return self.summary.degraded

    def min_detectable_rate(self) -> float:
        """The agent's *current* detection floor (Eq. 8) given its live
        K̄ estimate — 37 SYN/s at a UNC-sized site, 1.75 at Auckland."""
        return self.parameters.min_detectable_rate(self.k_bar)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The agent's complete O(1) detection state as a
        JSON-serializable dict.

        Everything a restarted process needs to continue the run as if
        never interrupted: the EWMA K̄ estimate, the CUSUM state, the
        period clock, the degraded-mode bookkeeping, and the running
        summary.  The per-period record history is *not* included — it
        is O(n) evidence, already exported through events/metrics, and
        a restart must not need it.
        """
        summary = self.summary
        return {
            "version": CHECKPOINT_VERSION,
            "name": self.name,
            "next_period_index": summary.periods,
            "prev_alarm": summary.alarm,
            **summary.state_dict(),
            "k_estimate": self.normalizer.estimator.raw_estimate,
            "cusum": self.cusum.state_dict(),
            "exchange": self.exchange.state_dict(),
            "last_counts": (
                None if self._last_counts is None else list(self._last_counts)
            ),
            "consecutive_missing": self._consecutive_missing,
            "parameters": {
                "observation_period": self.parameters.observation_period,
                "drift": self.parameters.drift,
                "attack_increase": self.parameters.attack_increase,
                "threshold": self.parameters.threshold,
                "ewma_alpha": self.parameters.ewma_alpha,
                "normal_mean": self.parameters.normal_mean,
            },
            "staleness_cap": self.staleness_cap,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        parameters: Optional[SynDogParameters] = None,
        obs: Optional[Instrumentation] = None,
        name: Optional[str] = None,
    ) -> "SynDog":
        """Rebuild an agent from a :meth:`checkpoint` dict.

        The restored agent produces records from ``next_period_index``
        onward that are bit-identical to what the uninterrupted agent
        would have produced — the guarantee the checkpoint round-trip
        tests pin down.  ``parameters``/``obs``/``name`` default to the
        checkpointed values (parameters are always reconstructed from
        the checkpoint unless overridden, so a restart cannot silently
        change the test's configuration).
        """
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build writes {CHECKPOINT_VERSION})"
            )
        if state.get("freeze_k_on_alarm"):
            # Earlier builds could hold K̄ while alarmed; this one always
            # updates it (Eq. 1), so such a state would resume as a
            # different detector.
            raise ValueError(
                "checkpoint holds K̄ while alarmed (freeze_k_on_alarm); "
                "this build updates K̄ every period"
            )
        if parameters is None:
            parameters = SynDogParameters(**state["parameters"])
        obs = resolve_instrumentation(obs)
        dog = cls(
            parameters=parameters,
            staleness_cap=int(state.get("staleness_cap", 3)),
            obs=obs,
            name=name if name is not None else state.get("name"),
        )
        dog.summary.load_state(
            state["next_period_index"], state["prev_alarm"], state
        )
        dog.normalizer.estimator.load(state["k_estimate"])
        dog.cusum.load_state(state["cusum"])
        dog.exchange.load_state(state["exchange"])
        last_counts = state.get("last_counts")
        dog._last_counts = (
            None if last_counts is None else (int(last_counts[0]), int(last_counts[1]))
        )
        dog._consecutive_missing = int(state.get("consecutive_missing", 0))
        if obs.registry is not None:
            # Continuity accounting for /healthz: every restart that
            # resumed from a checkpoint instead of starting cold.
            obs.registry.counter(
                "syndog_checkpoints_restored_total",
                "Detector agents rebuilt from checkpoint state",
            ).inc()
        return dog

    def clear_alarm(self) -> None:
        """Operator acknowledgement: reset the CUSUM statistic to zero
        and re-arm the detector.

        The K̄ estimate and the observation clock are *kept* — clearing
        an alarm must not make the agent forget what normal traffic
        looks like, or the next attack would get a fresh warm-up to hide
        in.  If the flood is still running, the statistic re-accumulates
        and the alarm re-fires within the usual detection delay.
        """
        self.cusum.reset()

    def __repr__(self) -> str:
        return (
            f"SynDog(periods={self.summary.periods}, y={self.statistic:.4f}, "
            f"K={self.k_bar:.1f}, alarm={self.alarm})"
        )
