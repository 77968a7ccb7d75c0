"""SYN cookies (Bernstein & Schenk [3]) — the stateless victim-side
defense.

Instead of storing a half-open entry, the server encodes the connection
state inside its initial sequence number: a keyed hash of the 4-tuple
plus a coarse time counter.  The final handshake ACK echoes cookie+1,
so the server can validate it *without any per-connection memory* and
only then instantiate the connection.

The paper contrasts this family of defenses with SYN-dog: they protect
the victim (and SYN cookies specifically trades CPU for memory), but
they run at the *victim* side and "can not give any hint about the SYN
flooding sources".  The benches use this class to show the victim
staying available under flood while learning nothing about where the
flood comes from.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Callable, Dict, Optional

from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Address
from ..packet.packet import Packet, make_syn_ack
from ..tcpsim.backlog import ConnectionKey
from ..tcpsim.engine import EventScheduler

__all__ = ["SynCookieServer", "encode_cookie", "validate_cookie"]

PacketSink = Callable[[Packet], None]

#: Cookie time-counter granularity (seconds).  Real implementations use
#: 64 s; anything much larger than the handshake RTT works.
COOKIE_TIME_SLOT = 64.0

#: How many time slots back a cookie is still accepted.
COOKIE_MAX_AGE_SLOTS = 2


def _cookie_hash(secret: bytes, key: ConnectionKey, counter: int) -> int:
    material = secret + struct.pack("!IHHI", key[0], key[1], key[2], counter)
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:4], "big")


def encode_cookie(
    secret: bytes, key: ConnectionKey, client_seq: int, now: float
) -> int:
    """Compute the cookie ISN for a SYN with sequence *client_seq*.

    Layout: the top 8 bits carry the time-slot counter (mod 256), the
    low 24 bits the keyed hash folded with the client ISN — enough to
    make blind forgery a 2^24 guess per slot, which is the real
    scheme's security level for these fields.
    """
    counter = int(now // COOKIE_TIME_SLOT) & 0xFF
    mixed = (_cookie_hash(secret, key, counter) ^ client_seq) & 0x00FFFFFF
    return (counter << 24) | mixed


def validate_cookie(
    secret: bytes, key: ConnectionKey, client_seq: int, cookie: int, now: float
) -> bool:
    """Check an echoed cookie (the ACK field minus one)."""
    counter = (cookie >> 24) & 0xFF
    current = int(now // COOKIE_TIME_SLOT)
    # Accept the current slot and up to COOKIE_MAX_AGE_SLOTS older ones
    # (mod-256 wraparound handled by testing each candidate).
    if not any(
        (current - age) & 0xFF == counter
        for age in range(COOKIE_MAX_AGE_SLOTS + 1)
    ):
        return False
    expected = (_cookie_hash(secret, key, counter) ^ client_seq) & 0x00FFFFFF
    return (cookie & 0x00FFFFFF) == expected


class SynCookieServer:
    """A victim server running with SYN cookies enabled.

    Drop-in alternative to :class:`~repro.tcpsim.endpoint.ServerEndpoint`:
    same ``receive``/``output`` interface, but **no backlog** — memory
    use is O(established connections) regardless of flood rate.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        address: IPv4Address,
        output: PacketSink,
        port: int = 80,
        rng: Optional[random.Random] = None,
        secret: Optional[bytes] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.scheduler = scheduler
        self.address = address
        self.output = output
        self.port = port
        rng = rng or random.Random(0)
        self.secret = secret or rng.getrandbits(128).to_bytes(16, "big")
        self.established: Dict[ConnectionKey, float] = {}
        self.syns_received = 0
        self.synacks_sent = 0
        self.acks_validated = 0
        self.acks_rejected = 0
        self.frames_rejected = 0
        obs = resolve_instrumentation(obs)
        if obs.registry is not None:
            validations = obs.registry.counter(
                "defense_cookie_validations_total",
                "Handshake-ACK cookie checks by outcome",
                ("result",),
            )
            self._m_validated = validations.labels("validated")
            self._m_rejected = validations.labels("rejected")
        else:
            self._m_validated = None
            self._m_rejected = None

    def _key_for(self, packet: Packet) -> Optional[ConnectionKey]:
        segment = packet.tcp
        if segment is None:
            return None
        return (int(packet.src_ip), segment.src_port, segment.dst_port)

    def receive_wire(self, raw: bytes, timestamp: float = 0.0) -> None:
        """Wire-level ingestion with the same degrade-don't-raise
        contract as :meth:`SynProxy.receive_wire`: undecodable frames
        (truncation, header corruption) are counted in
        ``frames_rejected`` and dropped; garbled-but-decodable packets
        fall through :meth:`receive`'s normal rejection paths."""
        try:
            packet = Packet.decode_frame(raw, timestamp=timestamp)
        except ValueError:
            self.frames_rejected += 1
            return
        self.receive(packet)

    def receive(self, packet: Packet) -> None:
        segment = packet.tcp
        if segment is None or segment.dst_port != self.port:
            return
        if segment.is_syn:
            self._handle_syn(packet)
        elif segment.flags and not segment.is_syn_ack and not segment.is_rst:
            self._handle_ack(packet)

    def _handle_syn(self, packet: Packet) -> None:
        self.syns_received += 1
        key = self._key_for(packet)
        if key is None:
            return
        segment = packet.tcp
        cookie = encode_cookie(self.secret, key, segment.seq, self.scheduler.now)
        self.synacks_sent += 1
        self.output(
            make_syn_ack(
                timestamp=self.scheduler.now,
                src=self.address,
                dst=packet.src_ip,
                src_port=key[2],
                dst_port=key[1],
                seq=cookie,
                ack=(segment.seq + 1) & 0xFFFFFFFF,
            )
        )
        # NOTE: nothing is stored.  That single fact is the defense.

    def _handle_ack(self, packet: Packet) -> None:
        key = self._key_for(packet)
        segment = packet.tcp
        if key is None or segment is None:
            return
        if key in self.established:
            return
        cookie = (segment.ack - 1) & 0xFFFFFFFF
        client_seq = (segment.seq - 1) & 0xFFFFFFFF
        if validate_cookie(
            self.secret, key, client_seq, cookie, self.scheduler.now
        ):
            self.acks_validated += 1
            self.established[key] = self.scheduler.now
            if self._m_validated is not None:
                self._m_validated.inc()
        else:
            self.acks_rejected += 1
            if self._m_rejected is not None:
                self._m_rejected.inc()

    @property
    def half_open_count(self) -> int:
        """Always zero — cookies hold no half-open state."""
        return 0

    def housekeeping(self) -> None:
        """Interface parity with ServerEndpoint (nothing to expire)."""
