"""SYN proxying (SynDefender [6] / NetScreen [19] style) — the stateful
firewall baseline.

The proxy terminates every inbound handshake itself: it answers the
client's SYN with its own SYN/ACK, and only after the client's final
ACK proves liveness does it open a back-end handshake to the real
server.  Spoofed SYNs therefore never reach the server — but each one
occupies an entry in the *proxy's* pending table until it times out,
which is the paper's point that such defenses are "stateful … which
makes the defense mechanism itself vulnerable to SYN flooding attacks".

The ``pending_overflow`` counter records exactly when the proxy's own
table fills and it starts dropping clients — the failure mode a
14,000 SYN/s flood triggers on real firewall appliances [8].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Address
from ..packet.packet import Packet, make_ack, make_syn, make_syn_ack
from ..tcpsim.backlog import ConnectionKey
from ..tcpsim.engine import EventScheduler, ScheduledEvent

__all__ = ["SynProxy"]

PacketSink = Callable[[Packet], None]


@dataclass
class _PendingClient:
    key: ConnectionKey
    client_isn: int
    proxy_isn: int
    timer: ScheduledEvent


class SynProxy:
    """An inline SYN proxy protecting one server.

    ``receive_from_client`` consumes packets arriving from the wide
    area and returns True when the packet was handled (so the caller
    must not forward it); verified connections are re-originated toward
    the server through ``to_server``.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        to_client: PacketSink,
        to_server: PacketSink,
        server_address: IPv4Address,
        server_port: int = 80,
        pending_capacity: int = 4096,
        pending_timeout: float = 10.0,
        rng: Optional[random.Random] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if pending_capacity <= 0:
            raise ValueError(f"capacity must be positive: {pending_capacity}")
        if pending_timeout <= 0:
            raise ValueError(f"timeout must be positive: {pending_timeout}")
        self.scheduler = scheduler
        self.to_client = to_client
        self.to_server = to_server
        self.server_address = server_address
        self.server_port = server_port
        self.pending_capacity = pending_capacity
        self.pending_timeout = pending_timeout
        self.rng = rng or random.Random(0)
        self._pending: Dict[ConnectionKey, _PendingClient] = {}
        self.verified: Dict[ConnectionKey, float] = {}
        self.pending_overflow = 0
        self.handshakes_verified = 0
        self.peak_pending = 0
        self.frames_rejected = 0
        obs = resolve_instrumentation(obs)
        self._m_handshakes = (
            obs.registry.counter(
                "defense_syn_proxy_handshakes_total",
                "Client handshakes the SYN proxy verified and "
                "re-originated toward the server",
            )
            if obs.registry is not None
            else None
        )

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _key_for(self, packet: Packet) -> Optional[ConnectionKey]:
        segment = packet.tcp
        if segment is None:
            return None
        return (int(packet.src_ip), segment.src_port, segment.dst_port)

    def receive_wire(self, raw: bytes, timestamp: float = 0.0) -> bool:
        """Wire-level ingestion: decode an Ethernet frame and hand it to
        :meth:`receive_from_client`.

        Floods and faulty capture paths deliver garbage — truncated
        frames, corrupted headers (see :mod:`repro.faults.models`) — and
        an inline defense that raises on malformed input is itself a
        denial-of-service vector.  Undecodable frames are counted in
        ``frames_rejected`` and swallowed (True: nothing to forward);
        frames that decode to non-TCP or garbled segments fall through
        to the normal no-op path.
        """
        try:
            packet = Packet.decode_frame(raw, timestamp=timestamp)
        except ValueError:
            self.frames_rejected += 1
            return True
        return self.receive_from_client(packet)

    def receive_from_client(self, packet: Packet) -> bool:
        """Handle a wide-area packet.  Returns True when consumed."""
        segment = packet.tcp
        if (
            segment is None
            or packet.dst_ip != self.server_address
            or segment.dst_port != self.server_port
        ):
            return False
        if segment.is_syn:
            self._handle_client_syn(packet)
            return True
        if not segment.is_syn_ack and not segment.is_rst:
            return self._handle_client_ack(packet)
        return False

    def _handle_client_syn(self, packet: Packet) -> None:
        key = self._key_for(packet)
        segment = packet.tcp
        if key is None or key in self._pending or key in self.verified:
            return
        if len(self._pending) >= self.pending_capacity:
            # The proxy's own state is exhausted: clients get dropped.
            self.pending_overflow += 1
            return
        proxy_isn = self.rng.getrandbits(32)

        def expire(key=key) -> None:
            self._pending.pop(key, None)

        timer = self.scheduler.schedule_after(self.pending_timeout, expire)
        self._pending[key] = _PendingClient(
            key=key, client_isn=segment.seq, proxy_isn=proxy_isn, timer=timer
        )
        self.peak_pending = max(self.peak_pending, len(self._pending))
        # Answer on the server's behalf.
        self.to_client(
            make_syn_ack(
                timestamp=self.scheduler.now,
                src=self.server_address,
                dst=packet.src_ip,
                src_port=self.server_port,
                dst_port=segment.src_port,
                seq=proxy_isn,
                ack=(segment.seq + 1) & 0xFFFFFFFF,
            )
        )

    def _handle_client_ack(self, packet: Packet) -> bool:
        key = self._key_for(packet)
        segment = packet.tcp
        if key is None:
            return False
        pending = self._pending.get(key)
        if pending is None:
            return key not in self.verified  # swallow strays, pass established
        if segment.ack != ((pending.proxy_isn + 1) & 0xFFFFFFFF):
            return True  # bogus ACK: consume silently
        # Client proved liveness: promote and open the back-end leg.
        self.scheduler.cancel(pending.timer)
        del self._pending[key]
        self.verified[key] = self.scheduler.now
        self.handshakes_verified += 1
        if self._m_handshakes is not None:
            self._m_handshakes.inc()
        self.to_server(
            make_syn(
                timestamp=self.scheduler.now,
                src=IPv4Address(key[0]),
                dst=self.server_address,
                src_port=key[1],
                dst_port=self.server_port,
                seq=pending.client_isn,
            )
        )
        # Complete the back-end handshake on the client's behalf when the
        # server answers; for the handshake-level experiments here the
        # server's SYN/ACK is acknowledged immediately via receive_from_server.
        return True

    def receive_from_server(self, packet: Packet) -> bool:
        """Handle the server's SYN/ACK for a proxied back-end leg."""
        segment = packet.tcp
        if segment is None or not segment.is_syn_ack:
            return False
        key: ConnectionKey = (int(packet.dst_ip), segment.dst_port, segment.src_port)
        if key not in self.verified:
            return False
        self.to_server(
            make_ack(
                timestamp=self.scheduler.now,
                src=packet.dst_ip,
                dst=self.server_address,
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=segment.ack,
                ack=(segment.seq + 1) & 0xFFFFFFFF,
            )
        )
        return True
