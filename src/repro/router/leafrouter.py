"""The leaf router hosting SYN-dog (Figure 2).

A leaf router connects a stub network to the Internet.  This model has
the two interfaces the paper draws — inbound (Internet → Intranet) and
outbound (Intranet → Internet) — each with a packet classifier, plus
the attachment points SYN-dog needs: the outbound Sniffer on the
outbound interface, the inbound Sniffer on the inbound interface, an
ingress filter, and the MAC inventory used for localization.

The router works as a *replay* device: feed it time-sorted packets per
direction (from synthetic traces, pcap files, or the tcpsim network)
and it forwards them to the opposite side while every observer sees
them — the way a passive software agent on a real router observes the
forwarding path.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional

from ..defense.ingress import IngressFilter
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Network
from ..packet.classify import PacketClassifier
from ..packet.packet import Packet
from ..traceback.locator import HostInventory

__all__ = ["LeafRouter", "Interface"]

PacketObserver = Callable[[Packet], None]
PacketSink = Callable[[Packet], None]


class Interface:
    """One router interface: classifier statistics + observer taps.

    With instrumentation enabled the interface exports
    ``router_packets_total{interface,outcome}`` and times the passive
    observer fan-out into ``router_observer_seconds{interface}`` — the
    latency SYN-dog adds to the forwarding path, which the paper claims
    (and ``benchmarks/test_obs_overhead.py`` verifies) is negligible.
    """

    def __init__(self, name: str, obs: Optional[Instrumentation] = None) -> None:
        self.name = name
        obs = resolve_instrumentation(obs)
        self.classifier = PacketClassifier(obs=obs)
        self._observers: List[PacketObserver] = []
        self.packets_forwarded = 0
        self.packets_dropped = 0
        if obs.registry.enabled:
            outcomes = obs.registry.counter(
                "router_packets_total",
                "Packets handled per interface, by outcome",
                ("interface", "outcome"),
            )
            self._m_forwarded = outcomes.labels(name, "forwarded")
            self._m_dropped = outcomes.labels(name, "dropped")
            self._h_observer = obs.registry.histogram(
                "router_observer_seconds",
                "Wall-clock spent in passive observer taps per packet",
                ("interface",),
            ).labels(name)
        else:
            self._m_forwarded = None
            self._m_dropped = None
            self._h_observer = None

    def attach(self, observer: PacketObserver) -> None:
        """Register a passive tap (e.g. a SYN-dog sniffer feed)."""
        self._observers.append(observer)

    def process(self, packet: Packet) -> None:
        self.classifier.classify(packet)
        if self._h_observer is None:
            for observer in self._observers:
                observer(packet)
        else:
            start = time.perf_counter()
            for observer in self._observers:
                observer(packet)
            self._h_observer.observe(time.perf_counter() - start)

    def note_forwarded(self) -> None:
        self.packets_forwarded += 1
        if self._m_forwarded is not None:
            self._m_forwarded.inc()

    def note_dropped(self) -> None:
        self.packets_dropped += 1
        if self._m_dropped is not None:
            self._m_dropped.inc()


class LeafRouter:
    """A leaf router with inbound/outbound interfaces and a stub prefix.

    Parameters
    ----------
    stub_network:
        The prefix this router serves; used by the ingress filter and
        by direction sanity checks.
    to_internet / to_intranet:
        Optional downstream sinks receiving forwarded packets (wire the
        router into a tcpsim topology); omit for pure trace replay.
    """

    def __init__(
        self,
        stub_network: IPv4Network,
        to_internet: Optional[PacketSink] = None,
        to_intranet: Optional[PacketSink] = None,
        ingress_filter: Optional[IngressFilter] = None,
        inventory: Optional[HostInventory] = None,
        name: str = "leaf-router",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.name = name
        self.stub_network = stub_network
        obs = resolve_instrumentation(obs)
        self.outbound = Interface("outbound", obs=obs)
        self.inbound = Interface("inbound", obs=obs)
        self.to_internet = to_internet
        self.to_intranet = to_intranet
        self.ingress_filter = (
            ingress_filter if ingress_filter is not None
            else IngressFilter(stub_network)
        )
        # Explicit None-check: an empty HostInventory is falsy (it
        # defines __len__), and `or` would silently drop a shared one.
        self.inventory = inventory if inventory is not None else HostInventory()

    # ------------------------------------------------------------------
    # Forwarding paths
    # ------------------------------------------------------------------
    def forward_outbound(self, packet: Packet) -> bool:
        """A packet from the Intranet heading to the Internet.

        Order matters and mirrors a real pipeline: the interface taps
        (sniffers) observe the packet *before* the ingress filter may
        drop it — SYN-dog must keep seeing the flood that triggered the
        filter, and its own counts are of traffic offered at the
        interface.  Returns True when the packet was forwarded.
        """
        self.outbound.process(packet)
        # Learn MAC⇄IP bindings from legitimately-addressed traffic.
        if packet.src_ip in self.stub_network and packet.src_mac not in self.inventory:
            self.inventory.register(packet.src_mac, ip=packet.src_ip)
        if not self.ingress_filter.check(packet):
            self.outbound.note_dropped()
            return False
        self.outbound.note_forwarded()
        if self.to_internet is not None:
            self.to_internet(packet.forwarded())
        return True

    def forward_inbound(self, packet: Packet) -> bool:
        """A packet from the Internet heading into the stub network."""
        self.inbound.process(packet)
        self.inbound.note_forwarded()
        if self.to_intranet is not None:
            self.to_intranet(packet.forwarded())
        return True

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def replay(
        self,
        outbound: Iterable[Packet],
        inbound: Iterable[Packet],
    ) -> int:
        """Replay two time-sorted streams through the router in global
        timestamp order; returns the number of packets processed."""
        merged = sorted(
            [(packet, True) for packet in outbound]
            + [(packet, False) for packet in inbound],
            key=lambda item: item[0].timestamp,
        )
        for packet, is_outbound in merged:
            if is_outbound:
                self.forward_outbound(packet)
            else:
                self.forward_inbound(packet)
        return len(merged)
