"""The last-mile (victim-side) SYN-dog variant (Figure 6).

The paper's experiment topology (Figure 6) places sniffers at *both*
ends of the attack path: the **first-mile** sniffer — the paper's main
subject — watches the flooding source's stub network, while a
**last-mile** sniffer at the victim's leaf router sees the flood
arriving.  The last-mile direction pairing is mirrored:

* count **incoming SYNs** at the inbound interface (connection requests
  arriving for local servers), and
* count **outgoing SYN/ACKs** at the outbound interface (the local
  servers' answers leaving).

Under normal load, local servers answer nearly every request within an
RTT, so the normalized difference is again small and stationary.  Under
a flood the victim's backlog saturates and SYN/ACK production stops
tracking the SYN arrivals, so the same non-parametric CUSUM fires.
Semantics differ in one important way, which this module makes
explicit: a last-mile alarm says *a local server is being flooded* —
useful for mitigation — but carries no information about the sources;
localization still needs the first-mile agents (the paper's core
argument for first-mile placement).

Implementation-wise the variant is the same pipeline with the
direction/flag pairing swapped, so it reuses the count-level
:class:`~repro.core.syndog.SynDog` machinery through composition.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..packet.packet import Packet
from .parameters import DEFAULT_PARAMETERS, SynDogParameters
from .syndog import DetectionRecord, DetectionResult, SynDog

__all__ = ["LastMileSynDog"]


class LastMileSynDog:
    """A victim-side SYN-dog: incoming SYNs vs outgoing SYN/ACKs.

    The public surface mirrors :class:`SynDog`, with the directional
    methods renamed to match the mirrored pairing:

    * :meth:`observe_inbound` — packets arriving from the Internet
      (incoming SYNs are counted here);
    * :meth:`observe_outbound` — packets leaving toward the Internet
      (outgoing SYN/ACKs are counted here).
    """

    def __init__(
        self,
        parameters: SynDogParameters = DEFAULT_PARAMETERS,
        start_time: float = 0.0,
        initial_k: Optional[float] = None,
    ) -> None:
        # The inner SynDog's "outbound sniffer" slot counts our incoming
        # SYNs and its "inbound sniffer" slot counts our outgoing
        # SYN/ACKs; the count-level pipeline is direction-agnostic.
        self._inner = SynDog(
            parameters=parameters, start_time=start_time, initial_k=initial_k
        )

    # ------------------------------------------------------------------
    # Count-level API
    # ------------------------------------------------------------------
    def observe_period(
        self,
        incoming_syn_count: int,
        outgoing_synack_count: int,
        start_time: Optional[float] = None,
    ) -> DetectionRecord:
        """Feed one period's (incoming SYN, outgoing SYN/ACK) counts."""
        return self._inner.observe_period(
            incoming_syn_count, outgoing_synack_count, start_time=start_time
        )

    def observe_counts(
        self, counts: Iterable[Tuple[int, int]]
    ) -> DetectionResult:
        return self._inner.observe_counts(counts)

    # ------------------------------------------------------------------
    # Packet-level API (mirrored pairing)
    # ------------------------------------------------------------------
    def observe_inbound(self, packet: Packet) -> List[DetectionRecord]:
        """A packet arriving from the Internet: SYNs are counted.

        The inner detector's SYN-counting slot does the filtering — a
        non-SYN packet merely advances the observation clock.
        """
        return self._inner.observe_outbound(packet)

    def observe_outbound(self, packet: Packet) -> List[DetectionRecord]:
        """A packet leaving toward the Internet: SYN/ACKs are counted."""
        return self._inner.observe_inbound(packet)

    def observe_streams(
        self,
        inbound: Iterable[Packet],
        outbound: Iterable[Packet],
        end_time: Optional[float] = None,
    ) -> DetectionResult:
        """Replay two time-sorted streams with the last-mile pairing
        (ties inbound-first)."""
        return self._inner.observe_streams(
            inbound, outbound, end_time=end_time
        )

    def flush(self, end_time: Optional[float] = None) -> List[DetectionRecord]:
        return self._inner.flush(end_time=end_time)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def alarm(self) -> bool:
        """Is a local server currently under a SYN flood?"""
        return self._inner.alarm

    @property
    def statistic(self) -> float:
        return self._inner.statistic

    @property
    def k_bar(self) -> float:
        return self._inner.k_bar

    @property
    def parameters(self) -> SynDogParameters:
        return self._inner.parameters

    def result(self) -> DetectionResult:
        return self._inner.result()

    def min_detectable_rate(self) -> float:
        """Eq. 8 with the victim-side K̄: the smallest *arriving*
        aggregate flood this agent can eventually detect."""
        return self._inner.min_detectable_rate()

    def __repr__(self) -> str:
        return f"LastMile{self._inner!r}"
