"""Profiling workload: a small, deterministic packet-level campaign
that exercises every named pipeline stage end to end.

The :mod:`repro.obs.profiler` attributes cost to stages, but a stage
only shows up when something drives it.  This module is that driver —
the canonical workload behind ``repro profile`` and the committed
``BENCH_profile.json`` baseline.  Per network it:

1. synthesizes a packet trace (:func:`~repro.trace.synthetic
   .generate_packet_trace`),
2. serializes both directions to in-memory pcap images and parses them
   back through :class:`~repro.pcap.reader.PcapReader`
   (→ ``pcap.parse``),
3. replays the streams through a one-member
   :class:`~repro.router.fleet.Federation`
   (→ ``federation.feed`` → ``classify`` → ``sniff.update`` →
   ``cusum.step``).

``merge.fold`` comes from the :func:`~repro.parallel.run_plan` merge —
the campaign always goes through the sharded engine, even at
``workers=1`` (the engine runs the same shard loop inline), so the
profiler sees the identical call/packet counts at any worker count.
That is what makes cost-model profiles byte-identical across
``--workers``: the document is a pure function of those counts.

The member network is the :class:`~repro.trace.synthetic.AddressPlan`
default stub (``152.2.0.0/16``) so generated client sources pass the
leaf router's stub-membership check and every packet is forwarded.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..obs.runtime import Instrumentation, resolve_instrumentation
from ..packet.addresses import IPv4Network
from ..pcap.reader import PcapReader
from ..pcap.writer import packets_to_pcap_bytes
from ..router.fleet import Federation
from ..trace.profiles import SiteProfile
from ..trace.synthetic import generate_packet_trace

__all__ = [
    "DEFAULT_PROFILE_DURATION",
    "PROFILE_STUB_NETWORK",
    "ProfileTask",
    "profile_network",
    "run_profile_campaign",
]

#: Seconds of synthetic trace per profiled network.  Long enough to
#: cross several observation periods (so ``cusum.step`` runs), short
#: enough that ``repro profile`` stays a sub-second smoke workload.
DEFAULT_PROFILE_DURATION = 60.0

#: The AddressPlan default stub network — client sources are drawn
#: from it, so the federation member must claim the same prefix.
PROFILE_STUB_NETWORK = "152.2.0.0/16"


@dataclass(frozen=True)
class ProfileTask:
    """One network's profiling workload — a plain, picklable grid item
    for :mod:`repro.parallel` (mirrors campaign.NetworkTask).

    ``fastpath`` selects the ingestion arm: the columnar batched
    pipeline (default; stages ``fastpath.parse`` / ``fastpath.classify``
    / ``cusum.step``) or the per-packet object pipeline (the
    differential oracle; stages ``pcap.parse`` / ``federation.feed`` /
    ``classify`` / ``sniff.update`` / ``cusum.step``)."""

    network_id: int
    profile: SiteProfile
    seed: int
    duration: float
    parameters: SynDogParameters
    fastpath: bool = True


def profile_network(
    task: ProfileTask,
    obs: Optional[Instrumentation] = None,
) -> Dict[str, Any]:
    """Drive one network's traffic through the full packet pipeline,
    instrumenting via *obs*.  A pure function of the task, shared by
    the inline and sharded paths.

    The two arms produce the *same outcome dict* for the same task —
    the fastpath is byte-identical to the object pipeline on decoded
    packet counts and alarm transitions — they differ only in which
    profiler stages the work is attributed to."""
    obs = resolve_instrumentation(obs)
    trace = generate_packet_trace(
        task.profile, seed=task.seed, duration=task.duration
    )
    outbound_image = packets_to_pcap_bytes(trace.outbound)
    inbound_image = packets_to_pcap_bytes(trace.inbound)
    if task.fastpath:
        from ..core.syndog import SynDog
        from ..fastpath.pipeline import _drive_detector, scan_pair

        out, inb = scan_pair(
            outbound_image, inbound_image,
            task.parameters.observation_period, obs=obs,
        )
        detector = SynDog(parameters=task.parameters, obs=obs)
        _drive_detector(detector, out, inb)
        # The federation bus records the agent's *first* alarm during the
        # feed (the trailing flush never relays); mirror that so the two
        # arms return the same outcome dict.
        fed_records = detector.records[:-1]
        alarms = 1 if any(record.alarm for record in fed_records) else 0
        return {
            "network_id": task.network_id,
            "packets": out.decoded + inb.decoded,
            "outbound": out.decoded,
            "inbound": inb.decoded,
            "alarms": alarms,
        }
    # Round-trip through the pcap layer so parsing is part of the
    # profile — the reader is the pipeline's real ingress.
    outbound = list(
        PcapReader(
            io.BytesIO(outbound_image), obs=obs
        ).iter_packets(strict=False)
    )
    inbound = list(
        PcapReader(
            io.BytesIO(inbound_image), obs=obs
        ).iter_packets(strict=False)
    )
    name = f"net-{task.network_id}"
    federation = Federation(parameters=task.parameters, obs=obs)
    federation.add_network(name, IPv4Network.parse(PROFILE_STUB_NETWORK))
    processed = federation.feed(name, outbound, inbound)
    # Close the trailing observation period so ``cusum.step`` runs even
    # when the trace is shorter than one full period — the flush is
    # count-based and therefore deterministic.
    _, agent = federation.member(name)
    agent.detector.flush()
    return {
        "network_id": task.network_id,
        "packets": processed,
        "outbound": len(outbound),
        "inbound": len(inbound),
        "alarms": len(federation.alarms),
    }


def run_profile_campaign(
    profile: SiteProfile,
    networks: int = 2,
    base_seed: int = 0,
    duration: float = DEFAULT_PROFILE_DURATION,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    obs: Optional[Instrumentation] = None,
    workers: Optional[int] = 1,
    fastpath: bool = True,
) -> List[Dict[str, Any]]:
    """Profile *networks* independent stub networks and return their
    per-network summaries in grid order.

    Always executes through :func:`~repro.parallel.run_plan` — never a
    separate serial loop — so the profiler's stage counts (and hence
    the cost-model profile document) are identical at any ``workers``.

    ``fastpath`` picks which ingestion arm every task profiles; the
    outcome dicts are identical either way (the columnar path is
    byte-identical to the object oracle), only the stage attribution
    differs.
    """
    obs = resolve_instrumentation(obs)
    tasks = [
        ProfileTask(
            network_id=network_id,
            profile=profile,
            seed=base_seed * 100_003 + network_id,
            duration=duration,
            parameters=parameters,
            fastpath=fastpath,
        )
        for network_id in range(networks)
    ]
    from ..parallel import WorkPlan, run_plan

    return run_plan(
        WorkPlan.partition(tasks), profile_network,
        workers=workers, obs=obs,
    )
