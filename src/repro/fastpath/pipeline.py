"""The columnar detection pipeline: scan → periodize → SynDog.

Feeds :class:`~repro.core.syndog.SynDog` the *same per-period count
deltas* the object pipeline's :class:`~repro.core.sniffer.CountExchange`
would emit, computed with vectorized passes instead of per-packet
callbacks:

* the two interface captures are scanned into decoded-record columns
  (timestamp + class code) by :func:`scan_capture`;
* the detector's exchange owns the period clock, with boundaries
  ``CountExchange.start_of(1..K)``;
* the captures are never merged: the running max of the exchange's
  ``heapq.merge`` at each packet is the running max of the packet's
  own capture, so each counted lane (outbound SYN, inbound SYN/ACK) is
  counted per period by one ``np.searchsorted`` of the boundaries into
  its packets' running maxima, for sorted and reordered captures alike;
* no Python loop runs per period, and the counts are fed
  through ``SynDog.observe_period`` at ``start_of(k)``, so
  normalization, CUSUM, TSDB series, events, alerts and the
  ``cusum.step`` profiler stage are untouched.

Afterwards the exchange's period index is set once and
``CountExchange.account`` bulk-increments its sniffer/exchange counters
(``sniffer_packets_total``, ``sniffer_packets_counted_total``,
``exchange_periods_total``), so metric totals and checkpoints equal the
object pipeline's.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, List, Optional, Tuple, Union

import numpy as np

from ..core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from ..core.sniffer import CountExchange
from ..core.syndog import DetectionResult, SynDog
from ..packet.classify import ClassifierStats
from ..pcap.format import LINKTYPE_ETHERNET, PcapTruncatedError
from .classify import CLASS_SKIP, CLASS_SYN, CLASS_SYN_ACK, accumulate_stats, classify_block
from .columns import DEFAULT_BLOCK_BYTES, ColumnarPcapReader

__all__ = [
    "DirectionColumns",
    "scan_capture",
    "detect_from_sources",
    "detect_from_pcaps_fast",
    "counts_from_pcaps_fast",
]

PathLike = Union[str, Path]
Source = Union[str, Path, bytes, BinaryIO]

_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)


@dataclass
class DirectionColumns:
    """One interface capture reduced to decoded-record columns.

    Skipped (undecodable) records are excluded from the columns — they
    never reach the sniffers in the object pipeline — but stay audited
    in ``skipped_records``, mirroring ``PcapReader``'s counters.
    """

    timestamps: np.ndarray  # float64, decoded records in capture order
    codes: np.ndarray       # uint8 class codes, aligned with timestamps
    steps: np.ndarray       # uint8 rejection-step codes, aligned
    records_read: int
    skipped_records: int
    truncation: Optional[PcapTruncatedError]

    @property
    def decoded(self) -> int:
        return int(self.timestamps.size)

    def classifier_stats(self) -> ClassifierStats:
        """The statistics a ``PacketClassifier`` fed every decoded
        packet would hold (the oracle the differential suite compares
        against)."""
        return accumulate_stats(ClassifierStats(), self.codes, self.steps)


def scan_capture(
    source: Source,
    strict: bool = False,
    obs: Optional[Any] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> DirectionColumns:
    """Scan one capture (path, bytes image, or open binary stream) into
    :class:`DirectionColumns`.  Tolerant by default, like the streaming
    detection entry points; raw block buffers are dropped as soon as
    each block is classified, so memory stays O(block)."""
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
    ts_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    step_parts: List[np.ndarray] = []
    skipped = 0
    try:
        for block in reader.iter_blocks(strict=strict, block_bytes=block_bytes):
            token = None if prof_classify is None else prof_classify.begin()
            codes, steps = classify_block(block, ethernet)
            keep = codes != CLASS_SKIP
            kept = int(np.count_nonzero(keep))
            skipped += codes.size - kept
            if kept == codes.size:
                ts_parts.append(block.timestamps)
                code_parts.append(codes)
                step_parts.append(steps)
            elif kept:
                ts_parts.append(block.timestamps[keep])
                code_parts.append(codes[keep])
                step_parts.append(steps[keep])
            if prof_classify is not None:
                prof_classify.end(
                    token, packets=len(block), nbytes=int(block.caplens.sum())
                )
    finally:
        reader.close()
    if ts_parts:
        timestamps = np.concatenate(ts_parts)
        codes = np.concatenate(code_parts)
        steps = np.concatenate(step_parts)
    else:
        timestamps, codes, steps = _EMPTY_F8, _EMPTY_U8, _EMPTY_U8
    return DirectionColumns(
        timestamps=timestamps,
        codes=codes,
        steps=steps,
        records_read=reader.records_read,
        skipped_records=skipped,
        truncation=reader.truncation,
    )


# ----------------------------------------------------------------------
# Periodize
# ----------------------------------------------------------------------
def _boundaries(clock: CountExchange, last: Optional[float]) -> np.ndarray:
    """``clock.start_of(1 .. m)``: every period boundary at or before the
    latest timestamp *last* (None when there are no packets).  Each
    closes a period, and the period after the last one is the trailing
    period a flush closes."""
    if last is None:
        return _EMPTY_F8
    span = (last - clock.origin) // clock.observation_period
    # start_of(1 .. n) reaches past the last timestamp's period.
    n = max(0, int(span)) + 2
    starts = clock.start_of(np.arange(1, n + 1))
    return starts[: int(np.searchsorted(starts, last, side="right"))]


def _running_max(ts: np.ndarray) -> np.ndarray:
    """Running max of *ts*: *ts* itself when it is time-sorted, which
    one comparison pass shows for a fraction of the cost of
    ``np.maximum.accumulate``."""
    if bool(np.all(ts[1:] >= ts[:-1])):
        return ts
    return np.maximum.accumulate(ts)


def _period_counts(
    out: DirectionColumns, inb: DirectionColumns, clock: CountExchange
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-period (SYN, SYN/ACK) counts of two captures on *clock*'s
    periods, for any capture order, without merging them.

    The exchange counts a packet toward the last period that starts at
    or before the running max of the ``heapq.merge`` of both captures
    (ties outbound-first), how it treats timestamps that step
    backwards.  With two streams the merge compares heads, and every
    packet it takes from one stream is at most the other stream's head
    then; so the merged running max at each packet is the running max
    of its own capture, and the highest is the larger of the two
    captures' maxima.  Each counted lane (outbound SYN, inbound
    SYN/ACK) is then counted per period by one ``np.searchsorted`` of
    the boundaries into its packets' running maxima.  The final entry is
    the trailing period a flush closes.
    """
    running = [_running_max(cols.timestamps) for cols in (out, inb)]
    last = max((float(r[-1]) for r in running if r.size), default=None)
    bounds = _boundaries(clock, last)

    def lane(running_max: np.ndarray, codes: np.ndarray, code: int) -> np.ndarray:
        ts = running_max[codes == code]
        return np.diff(np.searchsorted(ts, bounds), prepend=0, append=ts.size)

    return (
        lane(running[0], out.codes, CLASS_SYN),
        lane(running[1], inb.codes, CLASS_SYN_ACK),
    )


def _account(
    exchange: CountExchange,
    out: DirectionColumns,
    inb: DirectionColumns,
    periods: int,
) -> None:
    """Leave the sniffer/exchange counters where a packet-at-a-time
    object run would."""
    exchange.account(
        out_seen=out.decoded,
        out_counted=int(np.count_nonzero(out.codes == CLASS_SYN)),
        in_seen=inb.decoded,
        in_counted=int(np.count_nonzero(inb.codes == CLASS_SYN_ACK)),
        periods=periods,
    )


def _drive_detector(
    detector: SynDog, out: DirectionColumns, inb: DirectionColumns
) -> None:
    """Feed every period of the two captures, the trailing flush period
    included, through ``SynDog.observe_period`` at the exchange's start
    times, then move the exchange's clock and counters to where the
    object pipeline leaves them."""
    exchange = detector.exchange
    syn_counts, synack_counts = _period_counts(out, inb, exchange)
    observe = detector.observe_period
    start_of = exchange.start_of
    for k, (syn, synack) in enumerate(
        zip(syn_counts.tolist(), synack_counts.tolist())
    ):
        observe(syn, synack, start_time=start_of(k))
    exchange.period_index = len(syn_counts)
    _account(exchange, out, inb, len(syn_counts))


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
    out_cols = scan_capture(
        outbound, strict=False, obs=obs, block_bytes=block_bytes
    )
    in_cols = scan_capture(
        inbound, strict=False, obs=obs, block_bytes=block_bytes
    )
    detector = SynDog(parameters=parameters, obs=obs)
    _drive_detector(detector, out_cols, in_cols)
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

    out_cols = scan_capture(outbound_path, strict=False)
    in_cols = scan_capture(inbound_path, strict=False)
    # An ambient-instrumented exchange, like the one the object
    # aggregation feeds packet by packet: its clock places the periods
    # and its counters take the totals.
    exchange = CountExchange(observation_period=period)
    syn_counts, synack_counts = _period_counts(out_cols, in_cols, exchange)
    reports = list(zip(syn_counts.tolist(), synack_counts.tolist()))
    _account(exchange, out_cols, in_cols, len(reports))
    metadata = TraceMetadata(
        name=name,
        duration=len(reports) * period,
        bidirectional=False,
        description=f"aggregated from {outbound_path} / {inbound_path}",
    )
    return CountTrace(
        metadata=metadata,
        period=period,
        counts=tuple(reports),
    )
