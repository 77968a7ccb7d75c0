"""The fault injector: one seed, one schedule, reproducible chaos.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.FaultSchedule`
into concrete perturbations of the three surfaces the detection path
exposes — per-period count traces, packet streams, and raw wire/pcap
bytes.  Determinism contract: every fault spec gets its own
``random.Random`` seeded from ``f"{seed}|{spec_index}|{kind}"`` (string
seeds hash through SHA-512, which is stable across processes, unlike
``hash()``), so adding or removing one spec never perturbs the draws of
another, and the same (schedule, seed) pair replays bit for bit.

Every injected fault is tallied twice: into the local ``injected``
mapping (always) and into the ``faults_injected_total{kind=...}``
counter (when observability is enabled), so a chaos run can assert it
actually injected something.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.packet import Packet
from ..trace.events import CountTrace
from .models import (
    corrupt_header,
    drop_burst_stream,
    duplicate_stream,
    reorder_stream,
    skew_timestamp,
    thin_count,
    truncate_frame,
    truncate_pcap_image,
)
from .schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = ["FaultInjector", "InjectionPlan", "PeriodAction", "CrashEvent"]


@dataclass(frozen=True)
class PeriodAction:
    """What happens to one observation period under the schedule.

    ``kind`` is ``"observe"`` (the — possibly perturbed — counts reach
    the detector) or ``"missing"`` (the period report is lost and the
    detector must run its degraded path).  ``faults`` names the fault
    kinds that touched this period, for forensics in the report.
    """

    period_index: int
    kind: str                       # "observe" | "missing"
    syn: int = 0
    synack: int = 0
    start_time: Optional[float] = None
    faults: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CrashEvent:
    """An agent crash: the period index at which state is lost and how
    many subsequent period reports the restart outage swallows."""

    period_index: int
    outage_periods: int


@dataclass(frozen=True)
class InjectionPlan:
    """The fully materialized fate of a count trace under a schedule —
    a pure value, so the same plan can drive the faulted arm and be
    embedded in the degradation report."""

    schedule_name: str
    seed: int
    actions: Tuple[PeriodAction, ...]
    crashes: Tuple[CrashEvent, ...] = ()

    @property
    def missing_periods(self) -> int:
        return sum(1 for action in self.actions if action.kind == "missing")

    @property
    def perturbed_periods(self) -> int:
        return sum(1 for action in self.actions if action.faults)


class FaultInjector:
    """Applies one schedule, under one seed, to anything the detection
    path consumes.

    Parameters
    ----------
    schedule:
        The fault scenario to realize.
    seed:
        Root seed; combined with each spec's index and kind to derive
        independent per-spec streams.
    obs:
        Optional instrumentation; when enabled, every injection bumps
        ``faults_injected_total{kind=...}``.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        seed: int,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.schedule = schedule
        self.seed = int(seed)
        self.injected: Dict[str, int] = {}
        self._rngs: Dict[int, random.Random] = {
            index: random.Random(f"{self.seed}|{index}|{spec.kind}")
            for index, spec in enumerate(schedule.specs)
        }
        obs = resolve_instrumentation(obs)
        if obs.registry is not None:
            self._m_faults = obs.registry.counter(
                "faults_injected_total",
                "Faults injected into the detection path, by fault kind",
                ("kind",),
            )
        else:
            self._m_faults = None

    def _rng(self, spec_index: int) -> random.Random:
        return self._rngs[spec_index]

    def _note(self, kind: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.injected[kind] = self.injected.get(kind, 0) + count
        if self._m_faults is not None:
            self._m_faults.labels(kind).inc(count)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # ------------------------------------------------------------------
    # Count-trace surface (the chaos campaign's main path)
    # ------------------------------------------------------------------
    def plan_counts(self, trace: CountTrace) -> InjectionPlan:
        """Materialize the schedule against a count trace.

        Per period, in order: a lost report (``report-loss``) trumps
        everything; otherwise packet loss thins the counts (at count
        granularity a drop burst manifests as one lossy period — with
        probability ``burst_probability`` the period is hit and loses
        ``loss`` of its packets), counter desync perturbs the SYN/ACK
        side only, and clock skew displaces the period's start time.
        Crash specs become :class:`CrashEvent` entries for the campaign
        runner to realize (checkpoint loss + restart outage).
        """
        actions: List[PeriodAction] = []
        specs = list(enumerate(self.schedule.specs))
        for index, (syn, synack) in enumerate(trace.counts):
            time = index * trace.period
            faults: List[str] = []
            # 1. Lost period report?
            lost = False
            for spec_index, spec in specs:
                if spec.kind != FaultKind.REPORT_LOSS or not spec.active_at(time):
                    continue
                if self._rng(spec_index).random() < spec.params.get(
                    "probability", 0.0
                ):
                    lost = True
            if lost:
                self._note(FaultKind.REPORT_LOSS)
                actions.append(
                    PeriodAction(
                        period_index=index,
                        kind="missing",
                        faults=(FaultKind.REPORT_LOSS,),
                    )
                )
                continue
            # 2. Bursty packet loss, thinning both counters.
            for spec_index, spec in specs:
                if spec.kind != FaultKind.DROP_BURST or not spec.active_at(time):
                    continue
                rng = self._rng(spec_index)
                if rng.random() >= spec.params.get("burst_probability", 0.0):
                    continue
                loss = spec.params.get("loss", 0.0)
                thinned_syn = thin_count(syn, loss, rng)
                thinned_synack = thin_count(synack, loss, rng)
                dropped = (syn - thinned_syn) + (synack - thinned_synack)
                if dropped > 0:
                    self._note(FaultKind.DROP_BURST, dropped)
                    faults.append(FaultKind.DROP_BURST)
                syn, synack = thinned_syn, thinned_synack
            # 3. Sniffer counter desync (SYN/ACK side drifts).
            for spec_index, spec in specs:
                if (
                    spec.kind != FaultKind.COUNTER_DESYNC
                    or not spec.active_at(time)
                ):
                    continue
                rng = self._rng(spec_index)
                if rng.random() >= spec.params.get("probability", 0.0):
                    continue
                max_fraction = spec.params.get("max_fraction", 0.1)
                drift = rng.uniform(-max_fraction, max_fraction)
                synack = max(0, synack + int(round(synack * drift)))
                self._note(FaultKind.COUNTER_DESYNC)
                faults.append(FaultKind.COUNTER_DESYNC)
            # 4. Clock skew on the period boundary.
            start_time: Optional[float] = None
            for spec_index, spec in specs:
                if spec.kind != FaultKind.CLOCK_SKEW or not spec.active_at(time):
                    continue
                rng = self._rng(spec_index)
                start_time = skew_timestamp(
                    time,
                    rng,
                    offset=spec.params.get("offset", 0.0),
                    jitter=spec.params.get("jitter", 0.0),
                )
                self._note(FaultKind.CLOCK_SKEW)
                faults.append(FaultKind.CLOCK_SKEW)
            actions.append(
                PeriodAction(
                    period_index=index,
                    kind="observe",
                    syn=syn,
                    synack=synack,
                    start_time=start_time,
                    faults=tuple(faults),
                )
            )
        crashes = []
        for spec_index, spec in specs:
            if spec.kind != FaultKind.CRASH:
                continue
            at_time = spec.params.get("at_time", 0.0)
            crash_index = int(at_time // trace.period)
            if 0 <= crash_index < trace.num_periods:
                crashes.append(
                    CrashEvent(
                        period_index=crash_index,
                        outage_periods=int(
                            spec.params.get("outage_periods", 1)
                        ),
                    )
                )
                self._note(FaultKind.CRASH)
        return InjectionPlan(
            schedule_name=self.schedule.name,
            seed=self.seed,
            actions=tuple(actions),
            crashes=tuple(crashes),
        )

    # ------------------------------------------------------------------
    # Packet-stream surface
    # ------------------------------------------------------------------
    def apply_to_packets(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Compose the schedule's packet-level transforms over a stream.

        Transforms are stationary over the stream (activity windows are
        a count-level concept; the built-in schedules keep packet specs
        window-free).  Composition order — drop, duplicate, reorder —
        mirrors a lossy, flapping, multi-path link.
        """
        stream: Iterable[Packet] = packets
        for spec_index, spec in enumerate(self.schedule.specs):
            rng = self._rng(spec_index)
            if spec.kind == FaultKind.DROP_BURST:
                stream = drop_burst_stream(
                    stream,
                    rng,
                    burst_probability=spec.params.get("burst_probability", 0.0),
                    mean_burst_length=spec.params.get("mean_burst_length", 4.0),
                    on_fault=self._note,
                )
            elif spec.kind == FaultKind.DUPLICATE:
                stream = duplicate_stream(
                    stream,
                    rng,
                    probability=spec.params.get("probability", 0.0),
                    on_fault=self._note,
                )
            elif spec.kind == FaultKind.REORDER:
                stream = reorder_stream(
                    stream,
                    rng,
                    probability=spec.params.get("probability", 0.0),
                    window=int(spec.params.get("window", 4)),
                    on_fault=self._note,
                )
        return iter(stream)

    # ------------------------------------------------------------------
    # Wire-byte / capture surfaces
    # ------------------------------------------------------------------
    def apply_to_wire(self, raw: bytes) -> bytes:
        """Maybe damage one raw frame (truncation, header corruption) —
        the input the classifier quarantine path exists for."""
        for spec_index, spec in enumerate(self.schedule.specs):
            rng = self._rng(spec_index)
            probability = spec.params.get("probability", 0.0)
            if spec.kind == FaultKind.TRUNCATE_FRAME:
                if rng.random() < probability:
                    raw = truncate_frame(
                        raw,
                        rng,
                        min_keep=int(spec.params.get("min_keep", 1)),
                        on_fault=self._note,
                    )
            elif spec.kind == FaultKind.CORRUPT_HEADER:
                if rng.random() < probability:
                    raw = corrupt_header(raw, rng, on_fault=self._note)
        return raw

    def apply_to_pcap(self, image: bytes) -> bytes:
        """Maybe truncate an in-memory pcap mid-record (crashed capture
        process / full disk)."""
        for spec_index, spec in enumerate(self.schedule.specs):
            if spec.kind != FaultKind.PCAP_TRUNCATION:
                continue
            keep_fraction = spec.params.get("keep_fraction", 0.5)
            truncated = truncate_pcap_image(image, keep_fraction)
            if len(truncated) < len(image):
                self._note(FaultKind.PCAP_TRUNCATION)
            image = truncated
        return image
