"""The columnar detection pipeline: scan and count per block → SynDog.

Feeds :class:`~repro.core.syndog.SynDog` the *same per-period count
deltas* the object pipeline's :class:`~repro.core.sniffer.CountExchange`
would emit, computed with vectorized passes instead of per-packet
callbacks.  :func:`scan_capture` classifies each ~1 MiB block of one
capture and folds it straight into a :class:`CaptureSummary` — class
totals, the running max of the timestamps carried across blocks, and
per-period counts of the capture's counted lane (outbound SYN, inbound
SYN/ACK) — then drops it, so a scan holds one block and one count per
period, however long the capture.  Periods are the detector clock's,
``CountExchange.start_of(k)``.  The captures are never merged: the
running max of the exchange's ``heapq.merge`` at each packet is the
running max of the packet's own capture, so a block's lane is counted
by one ``np.searchsorted`` of the block's own boundaries into its
packets' running maxima, for sorted and reordered captures alike.

Once both captures are scanned, the larger running max sets the number
of periods, each is fed through ``SynDog.observe_period`` at
``start_of(k)`` (normalization, CUSUM, TSDB series, events, alerts and
the ``cusum.step`` profiler stage are untouched), and
``CountExchange.account`` bulk-increments the sniffer/exchange
counters, so metric totals and checkpoints equal the object pipeline's.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, List, Optional, Tuple, Union

import numpy as np

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.sniffer import CountExchange
from ..core.syndog import DetectionResult, SynDog
from ..obs.runtime import NULL_INSTRUMENTATION
from ..packet.classify import ClassifierStats
from ..pcap.format import LINKTYPE_ETHERNET, PcapTruncatedError
from .classify import (
    CLASS_SKIP, CLASS_SYN, CLASS_SYN_ACK, CODES, accumulate_stats,
    classify_block,
)
from .columns import DEFAULT_BLOCK_BYTES, ColumnarPcapReader

__all__ = [
    "CaptureSummary", "scan_capture", "scan_pair", "detect_from_sources",
    "detect_from_pcaps_fast", "counts_from_pcaps_fast",
]

PathLike = Union[str, Path]
Source = Union[str, Path, bytes, BinaryIO]


@dataclass
class CaptureSummary:
    """One interface capture folded block by block.

    Skipped (undecodable) records never reach the sniffers in the
    object pipeline; they count only in ``skipped_records``, mirroring
    ``PcapReader``'s counters, and move no running max.
    """

    lane: int  # the code counted per period
    #: Records per code, over every complete record read.
    code_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(CODES, dtype=np.int64)
    )
    #: Lane records per period; entries past the last period are zero.
    lane_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Running max of the decoded timestamps; None before the first.
    last: Optional[float] = None
    records_read: int = 0
    truncation: Optional[PcapTruncatedError] = None

    @property
    def skipped_records(self) -> int:
        return int(self.code_counts[CLASS_SKIP])

    @property
    def decoded(self) -> int:
        return int(self.code_counts.sum()) - self.skipped_records

    @property
    def counted(self) -> int:
        return int(self.code_counts[self.lane])

    def classifier_stats(self) -> ClassifierStats:
        """The statistics a ``PacketClassifier`` fed every decoded
        packet would hold (the oracle the differential suite compares
        against)."""
        return accumulate_stats(ClassifierStats(), self.code_counts)

    def fold(
        self, timestamps: np.ndarray, codes: np.ndarray, clock: CountExchange
    ) -> None:
        """Fold the next records of the capture (float64 timestamps and
        codes, in capture order) into the summary, on *clock*'s
        periods."""
        counts = np.bincount(codes, minlength=CODES)
        self.code_counts += counts
        if counts[CLASS_SKIP]:
            decoded = codes != CLASS_SKIP
            timestamps, codes = timestamps[decoded], codes[decoded]
        if not timestamps.size:
            return
        carried = self.last
        if (carried is None or timestamps[0] >= carried) and (
            timestamps[1:] >= timestamps[:-1]
        ).all():
            running = timestamps  # sorted: its own running max
        else:
            running = np.maximum.accumulate(timestamps)
            if carried is not None:
                np.maximum(running, carried, out=running)
        self.last = float(running[-1])
        if not counts[self.lane]:
            return
        at = running[codes == self.lane]
        # Periods lo .. hi cover the lane: a floor division may be one
        # period off either way, and the exact boundaries decide.
        t0 = clock.observation_period
        lo = max(0, int((float(at[0]) - clock.origin) // t0) - 1)
        hi = max(0, int((float(at[-1]) - clock.origin) // t0)) + 2
        edges = np.searchsorted(at, clock.start_of(np.arange(lo + 1, hi + 1)))
        if hi >= self.lane_counts.size:  # at least double
            self.lane_counts = np.pad(
                self.lane_counts, (0, hi + 1 + self.lane_counts.size)
            )
        # Period lo + i holds the lane records between edges i - 1 and i.
        lanes = self.lane_counts
        lanes[lo:hi] += edges
        lanes[lo + 1:hi + 1] -= edges
        lanes[hi] += at.size

    def period_counts(self, periods: int) -> List[int]:
        """The lane's count in each of the first *periods* periods."""
        counts = self.lane_counts[:periods].tolist()
        return counts + [0] * (periods - len(counts))


def scan_capture(
    source: Source,
    clock: CountExchange,
    lane: int,
    strict: bool = False,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> CaptureSummary:
    """Scan one capture (path, bytes image, or open binary stream) into
    a :class:`CaptureSummary` of its *lane* code counted on *clock*'s
    periods.  Tolerant by default, like the streaming detection entry
    points.  Each block is folded into the summary as soon as it is
    classified and then dropped, so memory is one block plus one count
    per period."""
    if isinstance(source, (str, Path)):
        reader = ColumnarPcapReader.open(source, obs=obs)
    elif isinstance(source, (bytes, bytearray, memoryview)):
        reader = ColumnarPcapReader(io.BytesIO(bytes(source)), obs=obs)
    else:
        reader = ColumnarPcapReader(source, obs=obs)
    ethernet = reader.header.network == LINKTYPE_ETHERNET
    prof_classify = (
        obs.profiler.stage("fastpath.classify", sample_every=1)
        if obs is not None and obs.profiler.enabled
        else None
    )
    summary = CaptureSummary(lane=lane)
    try:
        for block in reader.iter_blocks(strict=strict, block_bytes=block_bytes):
            token = None if prof_classify is None else prof_classify.begin()
            codes = classify_block(block, ethernet)
            if prof_classify is not None:
                prof_classify.end(
                    token, packets=len(block), nbytes=int(block.caplens.sum())
                )
            summary.fold(block.timestamps, codes, clock)
    finally:
        reader.close()
    summary.records_read = reader.records_read
    summary.truncation = reader.truncation
    return summary


def scan_pair(
    outbound: Source,
    inbound: Source,
    period: float,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Tuple[CaptureSummary, CaptureSummary]:
    """Scan the outbound capture's SYN lane and the inbound capture's
    SYN/ACK lane on the clock (origin 0, period *period*) a detector or
    an aggregation builds once both scans are done."""
    clock = CountExchange(observation_period=period, obs=NULL_INSTRUMENTATION)
    return tuple(
        scan_capture(source, clock, lane, obs=obs, block_bytes=block_bytes)
        for source, lane in ((outbound, CLASS_SYN), (inbound, CLASS_SYN_ACK))
    )


# ----------------------------------------------------------------------
# Periodize
# ----------------------------------------------------------------------
def _periods(clock: CountExchange, *captures: CaptureSummary) -> int:
    """Periods the exchange closes on *captures*: one per boundary
    ``clock.start_of(1..)`` at or before the latest running max, plus
    the trailing period a flush closes."""
    last = max((c.last for c in captures if c.last is not None), default=None)
    if last is None:
        return 1
    k = max(0, int((last - clock.origin) // clock.observation_period)) + 1
    while k > 0 and clock.start_of(k) > last:
        k -= 1
    while clock.start_of(k + 1) <= last:
        k += 1
    return k + 1


def _close_periods(
    exchange: CountExchange, out: CaptureSummary, inb: CaptureSummary
) -> Tuple[List[int], List[int]]:
    """Per-period (SYN, SYN/ACK) counts of two scanned captures on
    *exchange*'s clock, the trailing period a flush closes included.
    The exchange's sniffer/exchange counters move to where a
    packet-at-a-time object run would leave them."""
    periods = _periods(exchange, out, inb)
    exchange.account(
        out_seen=out.decoded, out_counted=out.counted,
        in_seen=inb.decoded, in_counted=inb.counted, periods=periods,
    )
    return out.period_counts(periods), inb.period_counts(periods)


def _drive_detector(
    detector: SynDog, out: CaptureSummary, inb: CaptureSummary
) -> None:
    """Feed every period of the two scanned captures, the trailing flush
    period included, through ``SynDog.observe_period`` at the exchange's
    start times, and leave the exchange's clock and counters where the
    object pipeline leaves them."""
    exchange = detector.exchange
    syn_counts, synack_counts = _close_periods(exchange, out, inb)
    observe = detector.observe_period
    start_of = exchange.start_of
    for k, (syn, synack) in enumerate(zip(syn_counts, synack_counts)):
        observe(syn, synack, start_time=start_of(k))
    exchange.period_index = len(syn_counts)


# ----------------------------------------------------------------------
# Public entry points (the fastpath twins of experiments.streaming)
# ----------------------------------------------------------------------
def detect_from_sources(
    outbound: Source,
    inbound: Source,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Tuple[DetectionResult, SynDog]:
    """Columnar twin of
    :func:`repro.experiments.streaming.detect_from_pcaps` over any
    capture sources (paths, byte images, open streams)."""
    out, inb = scan_pair(
        outbound, inbound, parameters.observation_period, obs=obs,
        block_bytes=block_bytes,
    )
    detector = SynDog(parameters=parameters, obs=obs)
    _drive_detector(detector, out, inb)
    return detector.result(), detector


def detect_from_pcaps_fast(
    outbound_path: PathLike,
    inbound_path: PathLike,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    obs: Optional[Any] = None,
) -> Tuple[DetectionResult, SynDog]:
    """Drop-in columnar replacement for ``detect_from_pcaps`` — same
    tolerant truncation semantics, byte-identical results."""
    return detect_from_sources(
        outbound_path, inbound_path, parameters=parameters, obs=obs
    )


def counts_from_pcaps_fast(
    outbound_path: PathLike,
    inbound_path: PathLike,
    period: float = 20.0,
    name: str = "pcap",
):
    """Columnar twin of
    :func:`repro.experiments.streaming.counts_from_pcaps`: aggregate two
    interface captures into a CountTrace with byte-identical per-period
    counts (including the trailing flush period)."""
    from ..trace.events import CountTrace, TraceMetadata

    out, inb = scan_pair(outbound_path, inbound_path, period)
    # An ambient-instrumented exchange, like the one the object
    # aggregation feeds packet by packet, places the periods and takes
    # the totals.
    reports = list(zip(*_close_periods(
        CountExchange(observation_period=period), out, inb
    )))
    metadata = TraceMetadata(
        name=name,
        duration=len(reports) * period,
        bidirectional=False,
        description=f"aggregated from {outbound_path} / {inbound_path}",
    )
    return CountTrace(metadata=metadata, period=period, counts=tuple(reports))
