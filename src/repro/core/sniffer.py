"""The two packet-counting sniffers of a SYN-dog agent (Section 2).

A SYN-dog consists of an *outbound Sniffer* at the leaf router's
outbound interface, counting SYNs leaving the stub network, and an
*inbound Sniffer* at the inbound interface, counting SYN/ACKs coming
back from the Internet.  The sniffers keep exactly one integer each —
no per-flow state — and periodically report their counts through a
shared :class:`CountExchange`, modelling the "shared memory or IPC
inside the router" the paper describes.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.classify import PacketClass, classify_packet

if TYPE_CHECKING:
    from ..packet.packet import Packet

__all__ = [
    "Direction",
    "OutboundSniffer",
    "InboundSniffer",
    "CountExchange",
    "PeriodReport",
    "merge_directional_streams",
]


class Direction:
    """Traffic direction names as the paper defines them: *inbound* flows
    from the Internet into the Intranet, *outbound* the other way."""

    INBOUND = "inbound"
    OUTBOUND = "outbound"


@dataclass(frozen=True)
class PeriodReport:
    """One observation period's counts, as delivered to the CUSUM stage."""

    period_index: int
    start_time: float
    end_time: float
    syn_count: int
    synack_count: int


class _CountingSniffer:
    """Shared machinery: classify each packet, bump one counter."""

    _target_class: PacketClass

    def __init__(self) -> None:
        self._count = 0

    def observe(self, packet: Packet) -> bool:
        """Count *packet* if it matches the sniffer's target class.
        Returns True when it was counted."""
        if classify_packet(packet) is self._target_class:
            self._count += 1
            return True
        return False

    def observe_classified(self, packet_class: Optional[PacketClass]) -> bool:
        """The update half of :meth:`observe` for callers that already
        classified the packet (the profiled hot path, which needs to
        attribute classification and counter update separately)."""
        if packet_class is self._target_class:
            self._count += 1
            return True
        return False

    @property
    def count(self) -> int:
        """Packets counted since the last :meth:`drain`."""
        return self._count

    def drain(self) -> int:
        """Report and reset the period counter (end of observation
        period)."""
        count, self._count = self._count, 0
        return count


class OutboundSniffer(_CountingSniffer):
    """Counts TCP SYN packets leaving the stub network."""

    _target_class = PacketClass.SYN


class InboundSniffer(_CountingSniffer):
    """Counts TCP SYN/ACK packets entering the stub network."""

    _target_class = PacketClass.SYN_ACK


class CountExchange:
    """Coordinates the two sniffers across observation-period boundaries.

    Models the paper's shared-memory/IPC exchange: at the end of each
    period :math:`t_0` the two counters are drained atomically into a
    :class:`PeriodReport`.  Packets are fed by timestamp; a packet whose
    timestamp crosses the current period boundary first closes the
    period (emitting a report — and empty reports for any fully idle
    periods in between) and then counts toward the new one.

    The exchange owns the one period clock: an ``origin`` and an integer
    ``period_index``.  Period *k* is ``[start_of(k), start_of(k + 1))``
    with ``start_of(k) = origin + k * t0`` — a product, never a running
    sum, so boundaries never drift.  A timestamp behind the current
    period counts toward the current period.
    """

    def __init__(
        self,
        observation_period: float,
        start_time: float = 0.0,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if observation_period <= 0:
            raise ValueError(
                f"observation period must be positive: {observation_period}"
            )
        self.observation_period = float(observation_period)
        self.outbound = OutboundSniffer()
        self.inbound = InboundSniffer()
        self.origin = float(start_time)
        self._period_index = 0
        self._next_boundary = self.start_of(1)
        # Hot-path contract (see repro.obs): the instruments are bound
        # once, by the first packet, fastpath fold or flush, so a
        # count-driven detector, which never feeds this exchange,
        # registers none of them.  Unbound or disabled (even if events
        # or the flight recorder are live), every per-packet guard is a
        # single None check — a method call per packet is not free at
        # 100k pps.
        obs = resolve_instrumentation(obs)
        self._registry = obs.registry
        self._m_out_seen = None
        self._m_in_seen = None
        self._m_out_counted = None
        self._m_in_counted = None
        self._m_periods = None
        # Profiler stage handles follow the same bind-once contract:
        # when disabled, observe_* pays exactly one extra None check.
        if obs.profiler is not None:
            self._prof_classify = obs.profiler.stage("classify")
            self._prof_sniff = obs.profiler.stage("sniff.update")
        else:
            self._prof_classify = None
            self._prof_sniff = None

    def _bind_counters(self) -> None:
        """Register and bind the sniffer and exchange counters; called
        once, while ``_registry`` still holds the live registry."""
        registry, self._registry = self._registry, None
        seen = registry.counter(
            "sniffer_packets_total",
            "Packets inspected at the sniffers, by direction",
            ("direction",),
        )
        counted = registry.counter(
            "sniffer_packets_counted_total",
            "Packets matching the sniffer's target class, by direction",
            ("direction",),
        )
        self._m_out_seen = seen.labels(Direction.OUTBOUND)
        self._m_in_seen = seen.labels(Direction.INBOUND)
        self._m_out_counted = counted.labels(Direction.OUTBOUND)
        self._m_in_counted = counted.labels(Direction.INBOUND)
        self._m_periods = registry.counter(
            "exchange_periods_total",
            "Observation periods closed by the count exchange",
        )

    def start_of(self, k):
        """Start time of period *k*: ``origin + k * t0``, the clock's
        definition.  *k* may be an int or an integer array (the columnar
        fastpath places whole captures at once)."""
        return self.origin + k * self.observation_period

    @property
    def period_index(self) -> int:
        """Index of the open period."""
        return self._period_index

    @period_index.setter
    def period_index(self, k: int) -> None:
        self._period_index = int(k)
        self._next_boundary = self.start_of(self._period_index + 1)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The period clock as a JSON-serializable dict.

        Partial in-period counters are deliberately *not* captured: a
        crash loses the packets counted since the last period boundary,
        and pretending otherwise would fabricate counts.  Restore
        resumes the clock at the checkpointed boundary with empty
        counters.
        """
        return {"origin": self.origin, "period_index": self._period_index}

    def load_state(self, state: dict) -> None:
        """Resume the period clock from :meth:`state_dict` output."""
        self.origin = float(state["origin"])
        self.period_index = state["period_index"]
        self.outbound.drain()
        self.inbound.drain()

    def account(
        self,
        out_seen: int,
        out_counted: int,
        in_seen: int,
        in_counted: int,
        periods: int,
    ) -> None:
        """Advance the sniffer and exchange counters by totals counted
        elsewhere (the columnar fastpath), to the values a
        packet-at-a-time run would leave.  A no-op when the registry is
        off."""
        if self._registry is not None:
            self._bind_counters()
        if self._m_periods is None:
            return
        self._m_out_seen.inc(out_seen)
        self._m_out_counted.inc(out_counted)
        self._m_in_seen.inc(in_seen)
        self._m_in_counted.inc(in_counted)
        self._m_periods.inc(periods)

    def _close_period(self) -> PeriodReport:
        k = self._period_index
        report = PeriodReport(
            period_index=k,
            start_time=self.start_of(k),
            end_time=self._next_boundary,
            syn_count=self.outbound.drain(),
            synack_count=self.inbound.drain(),
        )
        self._period_index = k + 1
        self._next_boundary = self.start_of(k + 2)
        if self._m_periods is not None:
            self._m_periods.inc()
        return report

    def _advance_to(self, timestamp: float) -> List[PeriodReport]:
        reports: List[PeriodReport] = []
        while timestamp >= self._next_boundary:
            reports.append(self._close_period())
        return reports

    def observe_outbound(self, packet: Packet) -> List[PeriodReport]:
        """Feed one packet seen at the outbound interface.  Returns the
        (possibly empty) list of period reports this packet's timestamp
        caused to close.

        When the profiler is on, every packet is *counted* against the
        ``classify`` and ``sniff.update`` stages (calls/packets/bytes —
        pure integer adds, worker-invariant); clocks are read only on
        sampled calls in timers mode and never in cost-model mode.  The
        untimed branch inlines the handles' countdown test and
        accumulation (the documented ``StageHandle`` hot-path contract):
        method calls per packet here were a measured 40% slowdown,
        inline integer adds keep the enabled profiler within its 1.15x
        budget (``benchmarks/test_profiler_overhead.py``)."""
        if self._registry is not None:
            self._bind_counters()
        reports = self._advance_to(packet.timestamp)
        prof_classify = self._prof_classify
        if prof_classify is not None:
            nbytes = packet.ip.total_length
            if prof_classify.countdown == 1:  # sampled (timers mode)
                counted = self._observe_sampled(packet, self.outbound, nbytes)
            else:
                prof_classify.countdown -= 1
                counted = self.outbound.observe(packet)
                prof_sniff = self._prof_sniff
                prof_classify.calls += 1
                prof_classify.packets += 1
                prof_classify.bytes += nbytes
                prof_sniff.calls += 1
                prof_sniff.packets += 1
                prof_sniff.bytes += nbytes
        else:
            counted = self.outbound.observe(packet)
        if self._m_out_seen is not None:
            self._m_out_seen.inc()
            if counted:
                self._m_out_counted.inc()
        return reports

    def observe_inbound(self, packet: Packet) -> List[PeriodReport]:
        """Feed one packet seen at the inbound interface.  Mirrors
        :meth:`observe_outbound`, including its inlined profiled path."""
        if self._registry is not None:
            self._bind_counters()
        reports = self._advance_to(packet.timestamp)
        prof_classify = self._prof_classify
        if prof_classify is not None:
            nbytes = packet.ip.total_length
            if prof_classify.countdown == 1:  # sampled (timers mode)
                counted = self._observe_sampled(packet, self.inbound, nbytes)
            else:
                prof_classify.countdown -= 1
                counted = self.inbound.observe(packet)
                prof_sniff = self._prof_sniff
                prof_classify.calls += 1
                prof_classify.packets += 1
                prof_classify.bytes += nbytes
                prof_sniff.calls += 1
                prof_sniff.packets += 1
                prof_sniff.bytes += nbytes
        else:
            counted = self.inbound.observe(packet)
        if self._m_in_seen is not None:
            self._m_in_seen.inc()
            if counted:
                self._m_in_counted.inc()
        return reports

    def _observe_sampled(
        self, packet: Packet, sniffer: _CountingSniffer, nbytes: int
    ) -> bool:
        """The 1-in-N clocked observe: classification and counter update
        measured separately so each lands on its own stage.  Rare by
        construction (the caller's countdown gate), so plain method
        calls are fine here."""
        prof_classify = self._prof_classify
        prof_sniff = self._prof_sniff
        prof_classify.countdown = prof_classify.every
        a0 = gc.get_count()[0]
        c0 = time.process_time_ns()
        w0 = time.perf_counter_ns()
        packet_class = classify_packet(packet)
        w1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        a1 = gc.get_count()[0]
        counted = sniffer.observe_classified(packet_class)
        w2 = time.perf_counter_ns()
        c2 = time.process_time_ns()
        a2 = gc.get_count()[0]
        # Alloc deltas clamped at 0: a gen-0 collection between reads
        # resets the counter (see repro.obs.profiler.allocation_count).
        prof_classify.add_timed(
            w1 - w0, c1 - c0, max(0, a1 - a0), nbytes=nbytes
        )
        prof_sniff.add_timed(
            w2 - w1, c2 - c1, max(0, a2 - a1), nbytes=nbytes
        )
        return counted

    def flush(self, end_time: Optional[float] = None) -> List[PeriodReport]:
        """Close the current period (and any idle periods up to
        *end_time*) at end of stream."""
        if self._registry is not None:
            self._bind_counters()
        reports: List[PeriodReport] = []
        if end_time is not None:
            reports.extend(self._advance_to(end_time))
        reports.append(self._close_period())
        return reports


def merge_directional_streams(
    outbound: Iterable[Packet],
    inbound: Iterable[Packet],
) -> Iterator[Tuple[Packet, bool]]:
    """Lazily merge two time-sorted packet streams.

    Yields ``(packet, is_outbound)`` in global timestamp order without
    materializing either stream (heapq.merge pulls one element at a
    time).  Ties break outbound-first, deterministically.
    """
    tagged_out = ((p.timestamp, 0, p) for p in outbound)
    tagged_in = ((p.timestamp, 1, p) for p in inbound)
    for _ts, tag, packet in heapq.merge(tagged_out, tagged_in):
        yield packet, tag == 0
