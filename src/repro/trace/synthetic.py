"""Synthetic trace generation from calibrated site profiles.

Two resolutions:

* :func:`generate_count_trace` — per-period (SYN, SYN/ACK) counts, the
  fast path used by the Monte-Carlo detection experiments (Tables 2–3
  need hundreds of trials);
* :func:`generate_packet_trace` — full timestamped packet streams with
  realistic addresses/ports/MACs, used by the router integration,
  pcap round-trips and the packet-level examples.

Both draw from the *same* arrival + handshake models, so the packet
path aggregates to the count path statistically; a unit test
cross-validates the two.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, List, Optional, Tuple

from .events import CountTrace, PacketTrace, TraceMetadata
from .handshake import HandshakeModel
from .profiles import SiteProfile

if TYPE_CHECKING:
    from ..packet.addresses import IPv4Address, IPv4Network, MACAddress
    from ..packet.packet import Packet

__all__ = [
    "generate_count_trace",
    "generate_packet_trace",
    "AddressPlan",
    "DEFAULT_OBSERVATION_PERIOD",
]

DEFAULT_OBSERVATION_PERIOD = 20.0

#: Common well-known destination ports, weighted roughly like year-2000
#: wide-area traffic (HTTP dominant; Smith et al. [25]).
_PORT_CHOICES: Tuple[int, ...] = (80, 80, 80, 80, 80, 443, 25, 21, 110, 23)


class AddressPlan:
    """Deterministic address assignment for packet-level generation.

    Local clients live inside ``stub_network`` (default
    ``152.2.0.0/16``) and carry stable MAC addresses (needed later by
    the MAC-based source localization); remote servers are scattered
    over the public address space.
    """

    def __init__(
        self,
        rng: random.Random,
        stub_network: Optional[IPv4Network] = None,
        num_clients: int = 200,
        num_servers: int = 400,
    ) -> None:
        # The packet codecs load here, not with the module: count-trace
        # synthesis needs none of them.
        from ..packet.addresses import IPv4Address, IPv4Network, MACAddress

        if num_clients <= 0 or num_servers <= 0:
            raise ValueError("need at least one client and one server")
        if stub_network is None:
            stub_network = IPv4Network.parse("152.2.0.0/16")
        self.stub_network = stub_network
        self.clients: List[Tuple[IPv4Address, MACAddress]] = []
        seen = set()
        while len(self.clients) < num_clients:
            address = stub_network.random_host(rng)
            if address in seen:
                continue
            seen.add(address)
            mac = MACAddress((0x02 << 40) | rng.getrandbits(32))
            self.clients.append((address, mac))
        self.servers: List[IPv4Address] = []
        while len(self.servers) < num_servers:
            # Public, non-bogon space: 64.0.0.0 – 203.255.255.255-ish.
            candidate = IPv4Address(rng.randrange(0x40000000, 0xC0000000))
            if candidate not in stub_network:
                self.servers.append(candidate)
        self.router_mac = MACAddress.parse("02:00:5e:00:00:01")

    def pick_client(self, rng: random.Random) -> Tuple[IPv4Address, MACAddress]:
        return rng.choice(self.clients)

    def pick_server(self, rng: random.Random) -> IPv4Address:
        return rng.choice(self.servers)


def generate_count_trace(
    profile: SiteProfile,
    seed: int,
    period: float = DEFAULT_OBSERVATION_PERIOD,
    duration: Optional[float] = None,
) -> CountTrace:
    """Synthesize per-period (SYN, SYN/ACK) counts for *profile*.

    Deterministic in *seed*.  *duration* overrides the profile's Table 1
    length when experiments need shorter (unit tests) or longer
    (false-alarm-time estimation) runs.
    """
    total = profile.duration if duration is None else duration
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"duration must be finite and positive: {total}")
    if not period > 0:
        raise ValueError(f"period must be positive: {period}")
    rng = random.Random(seed)
    num_periods = int(round(total / period))
    if num_periods <= 0:
        raise ValueError(
            f"duration {total}s shorter than one period ({period}s)"
        )
    arrivals = profile.make_arrivals()
    connection_counts = arrivals.counts(rng, num_periods, period)
    counts = profile.handshake.period_counts(rng, connection_counts, period)
    metadata = TraceMetadata(
        name=profile.name,
        duration=num_periods * period,
        bidirectional=profile.bidirectional,
        description=profile.description,
        site=profile.name,
        seed=seed,
    )
    return CountTrace(metadata=metadata, period=period, counts=tuple(counts))


def generate_packet_trace(
    profile: SiteProfile,
    seed: int,
    duration: Optional[float] = None,
    address_plan: Optional[AddressPlan] = None,
) -> PacketTrace:
    """Synthesize full packet streams for *profile*.

    Each simulated connection contributes its SYN(s) to the outbound
    stream and, if answered, a SYN/ACK to the inbound stream.  Ephemeral
    source ports, weighted destination ports and per-client MACs are
    assigned so the downstream classifier, router, and localization
    machinery all see realistic headers.
    """
    from ..packet.packet import make_syn, make_syn_ack

    total = profile.duration if duration is None else duration
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"duration must be finite and positive: {total}")
    rng = random.Random(seed)
    plan = address_plan or AddressPlan(rng)
    arrivals = profile.make_arrivals()
    arrival_times = arrivals.arrival_times(rng, total, DEFAULT_OBSERVATION_PERIOD)
    events = profile.handshake.simulate_handshakes(rng, arrival_times, total)

    outbound: List[Packet] = []
    inbound: List[Packet] = []
    for event in events:
        client_ip, client_mac = plan.pick_client(rng)
        server_ip = plan.pick_server(rng)
        client_port = rng.randrange(1024, 65536)
        server_port = rng.choice(_PORT_CHOICES)
        isn = rng.getrandbits(32)
        for syn_time in event.syn_times:
            outbound.append(
                make_syn(
                    timestamp=syn_time,
                    src=client_ip,
                    dst=server_ip,
                    src_port=client_port,
                    dst_port=server_port,
                    seq=isn,
                    src_mac=client_mac,
                    dst_mac=plan.router_mac,
                )
            )
        if event.synack_time is not None:
            inbound.append(
                make_syn_ack(
                    timestamp=event.synack_time,
                    src=server_ip,
                    dst=client_ip,
                    src_port=server_port,
                    dst_port=client_port,
                    seq=rng.getrandbits(32),
                    ack=(isn + 1) & 0xFFFFFFFF,
                    src_mac=plan.router_mac,
                    dst_mac=client_mac,
                )
            )
    outbound.sort(key=lambda packet: packet.timestamp)
    inbound.sort(key=lambda packet: packet.timestamp)
    metadata = TraceMetadata(
        name=profile.name,
        duration=total,
        bidirectional=profile.bidirectional,
        description=profile.description,
        site=profile.name,
        seed=seed,
    )
    return PacketTrace(
        metadata=metadata, outbound=tuple(outbound), inbound=tuple(inbound)
    )
