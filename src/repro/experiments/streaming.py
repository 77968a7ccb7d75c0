"""Streaming detection over pcap files.

A deployed SYN-dog never holds a trace in memory — it processes an
unbounded packet stream with O(1) state.  This module gives the library
the same property when reading capture files: the two interface pcaps
are lazily merged on timestamps
(:func:`~repro.core.sniffer.merge_directional_streams`) and fed to the
detector packet by packet, so arbitrarily large captures run in
constant memory.

``detect_from_pcaps`` is the function behind the CLI's ``detect
--pcap-out/--pcap-in`` path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.syndog import DetectionResult, SynDog
from ..obs.runtime import Instrumentation

__all__ = ["detect_from_pcaps", "counts_from_pcaps"]

PathLike = Union[str, Path]


def counts_from_pcaps(
    outbound_path: PathLike,
    inbound_path: PathLike,
    period: float = 20.0,
    name: str = "pcap",
    fastpath: bool = True,
):
    """Aggregate two interface capture files into a
    :class:`~repro.trace.events.CountTrace`, streaming (O(1) memory).

    The bridge from *any* real capture to the count-level experiment
    machinery: calibrate profiles against it, replay it through the
    tables, or feed it to the detector offline.

    ``fastpath=True`` (default) routes through the columnar pipeline
    (:mod:`repro.fastpath`); ``fastpath=False`` keeps the per-packet
    object pipeline, which is retained permanently as the differential
    oracle — the two produce byte-identical counts.
    """
    if fastpath:
        from ..fastpath.pipeline import counts_from_pcaps_fast

        return counts_from_pcaps_fast(
            outbound_path, inbound_path, period=period, name=name
        )
    from ..core.sniffer import CountExchange, merge_directional_streams
    from ..pcap.reader import PcapReader
    from ..trace.events import CountTrace, TraceMetadata

    exchange = CountExchange(observation_period=period)
    last_timestamp = 0.0
    reports = []
    with PcapReader.open(outbound_path) as outbound_reader, \
            PcapReader.open(inbound_path) as inbound_reader:
        for packet, is_outbound in merge_directional_streams(
            outbound_reader.iter_packets(strict=False),
            inbound_reader.iter_packets(strict=False),
        ):
            last_timestamp = packet.timestamp
            if is_outbound:
                reports.extend(exchange.observe_outbound(packet))
            else:
                reports.extend(exchange.observe_inbound(packet))
    reports.extend(exchange.flush(end_time=last_timestamp))
    metadata = TraceMetadata(
        name=name,
        duration=len(reports) * period,
        bidirectional=False,
        description=f"aggregated from {outbound_path} / {inbound_path}",
    )
    return CountTrace(
        metadata=metadata,
        period=period,
        counts=tuple(
            (report.syn_count, report.synack_count) for report in reports
        ),
    )


def detect_from_pcaps(
    outbound_path: PathLike,
    inbound_path: PathLike,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    obs: Optional[Instrumentation] = None,
    fastpath: bool = True,
) -> Tuple[DetectionResult, SynDog]:
    """Run SYN-dog over two interface capture files in constant memory.

    Returns the detection result together with the detector (whose live
    K̄ and Eq. 8 floor the caller may want to report).

    ``fastpath=True`` (default) runs the columnar batched pipeline
    (:mod:`repro.fastpath`): pcap records are parsed into parallel
    arrays, classified with vectorized passes, and the detector is fed
    per-period count deltas.  ``fastpath=False`` keeps the per-packet
    object pipeline — the permanent differential oracle.  The two paths
    produce byte-identical per-period counts, detection records and
    metric totals (``tests/fastpath`` enforces this).
    """
    if fastpath:
        from ..fastpath.pipeline import detect_from_pcaps_fast

        return detect_from_pcaps_fast(
            outbound_path, inbound_path, parameters=parameters, obs=obs
        )
    from ..pcap.reader import PcapReader

    detector = SynDog(parameters=parameters, obs=obs)
    with PcapReader.open(outbound_path) as outbound_reader, \
            PcapReader.open(inbound_path) as inbound_reader:
        # Tolerant reads: a capture truncated mid-record (crashed
        # tcpdump, full disk, chaos injection) degrades to "stream ended
        # here" instead of aborting detection; the loss stays visible on
        # the readers' truncation/skipped_records counters.
        result = detector.observe_streams(
            outbound_reader.iter_packets(strict=False),
            inbound_reader.iter_packets(strict=False),
        )
    return result, detector
