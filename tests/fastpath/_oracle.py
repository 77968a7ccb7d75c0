"""Shared oracle-vs-fastpath comparison helpers.

The object pipeline (PcapReader → Packet → PacketClassifier →
CountExchange → SynDog) is the permanent differential oracle; every
helper here runs both it and the columnar fastpath over the same bytes
and asserts byte-identity on whatever the caller cares about.
"""

from __future__ import annotations

import io
import re
from typing import List, Optional, Tuple

from repro.core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from repro.core.sniffer import CountExchange
from repro.core.syndog import SynDog
from repro.fastpath.classify import (
    CLASS_SKIP,
    CLASS_SYN,
    CODE_OUTCOME,
    classify_block,
)
from repro.fastpath.columns import ColumnarPcapReader
from repro.fastpath.pipeline import (
    CaptureSummary,
    detect_from_sources,
    scan_capture,
)
from repro.packet.classify import PacketClassifier, explain_packet
from repro.pcap.format import LINKTYPE_ETHERNET, PcapFormatError
from repro.pcap.reader import PcapReader

__all__ = [
    "oracle_scan",
    "fast_scan",
    "record_columns",
    "assert_capture_equivalent",
    "object_detect",
    "assert_detection_identical",
    "normalize_label",
    "metric_totals",
]

_SYNDOG_NAME = re.compile(r"^syndog-\d+$")


def oracle_scan(image: bytes):
    """Run the object pipeline over one capture image: tolerant
    iter_packets through a PacketClassifier.  Returns
    (reader, classifier, decoded packet list)."""
    reader = PcapReader(io.BytesIO(image))
    classifier = PacketClassifier()
    packets = []
    for packet in reader.iter_packets(strict=False):
        packets.append(packet)
        classifier.classify(packet)
    return reader, classifier, packets


def _truncation_key(error) -> Optional[Tuple[str, int, int]]:
    if error is None:
        return None
    return (str(error), error.byte_offset, error.records_read)


def fast_scan(
    image: bytes, block_bytes: Optional[int] = None, period: float = 20.0
) -> CaptureSummary:
    """The fastpath's tolerant scan of *image* (SYN lane, *period*
    seconds), in *block_bytes* reads or the default."""
    kwargs = {} if block_bytes is None else {"block_bytes": block_bytes}
    clock = CountExchange(observation_period=period)
    return scan_capture(image, clock, CLASS_SYN, **kwargs)


def record_columns(
    image: bytes, block_bytes: Optional[int] = None
) -> Tuple[List[float], List[int], List]:
    """Per-record columns of the fastpath's decoded records, in capture
    order: timestamps, codes, and the rejection step each code names
    (None for an accepted TCP class).  A scan keeps no per-record
    state, so these come from the reader and the classifier directly,
    one block at a time."""
    reader = ColumnarPcapReader.from_bytes(image)
    ethernet = reader.header.network == LINKTYPE_ETHERNET
    kwargs = {} if block_bytes is None else {"block_bytes": block_bytes}
    timestamps: List[float] = []
    codes: List[int] = []
    for block in reader.iter_blocks(strict=False, **kwargs):
        block_codes = classify_block(block, ethernet)
        decoded = block_codes != CLASS_SKIP
        timestamps.extend(block.timestamps[decoded].tolist())
        codes.extend(block_codes[decoded].tolist())
    steps = [CODE_OUTCOME[code][1] for code in codes]
    return timestamps, codes, steps


def assert_capture_equivalent(
    image: bytes, block_bytes: Optional[int] = None
) -> CaptureSummary:
    """Columnar scan of *image* (in *block_bytes* reads, or the default)
    must agree with the object oracle on every observable: record
    counters, truncation details, per-class counts, per-step rejections,
    the quarantine total, and each decoded record's timestamp, class
    and rejection step."""
    reader, classifier, packets = oracle_scan(image)
    cols = fast_scan(image, block_bytes)
    assert cols.records_read == reader.records_read
    assert cols.skipped_records == reader.skipped_records
    assert cols.decoded == len(packets)
    assert _truncation_key(cols.truncation) == _truncation_key(
        reader.truncation
    )
    stats = cols.classifier_stats()
    assert stats.counts == classifier.stats.counts
    assert stats.rejections == classifier.stats.rejections
    assert stats.quarantined == classifier.stats.quarantined
    # Per-record timestamps, classes and steps (decoded set, capture
    # order) must match too.
    timestamps, codes, steps = record_columns(image, block_bytes)
    assert timestamps == [packet.timestamp for packet in packets]
    assert [CODE_OUTCOME[code] for code in codes] == [
        explain_packet(packet) for packet in packets
    ]
    assert steps == [explain_packet(packet)[1] for packet in packets]
    return cols


def object_detect(
    outbound_image: bytes,
    inbound_image: bytes,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    obs=None,
):
    """The oracle detection run over two in-memory captures (tolerant
    reads, like detect_from_pcaps with fastpath=False)."""
    detector = SynDog(parameters=parameters, obs=obs)
    result = detector.observe_streams(
        PcapReader(io.BytesIO(outbound_image)).iter_packets(strict=False),
        PcapReader(io.BytesIO(inbound_image)).iter_packets(strict=False),
    )
    return result, detector


def _normalized_checkpoint(detector: SynDog) -> dict:
    checkpoint = detector.checkpoint()
    if isinstance(checkpoint, dict) and _SYNDOG_NAME.match(
        str(checkpoint.get("name", ""))
    ):
        checkpoint = dict(checkpoint)
        checkpoint["name"] = "syndog"
    return checkpoint


def assert_detection_identical(
    outbound_image: bytes,
    inbound_image: bytes,
    parameters: SynDogParameters = DEFAULT_PARAMETERS,
    block_bytes: Optional[int] = None,
):
    """Full detection byte-identity: DetectionResult, every per-period
    DetectionRecord, and the durable checkpoint (modulo the
    auto-generated per-process instance name)."""
    oracle_result, oracle_dog = object_detect(
        outbound_image, inbound_image, parameters=parameters
    )
    kwargs = {} if block_bytes is None else {"block_bytes": block_bytes}
    fast_result, fast_dog = detect_from_sources(
        outbound_image, inbound_image, parameters=parameters, **kwargs
    )
    assert fast_result == oracle_result
    assert len(fast_dog.records) == len(oracle_dog.records)
    for fast_record, oracle_record in zip(fast_dog.records, oracle_dog.records):
        assert fast_record == oracle_record
    assert _normalized_checkpoint(fast_dog) == _normalized_checkpoint(
        oracle_dog
    )
    return oracle_result, fast_result


def normalize_label(value: str) -> str:
    return "syndog" if _SYNDOG_NAME.match(str(value)) else value


def metric_totals(obs) -> dict:
    """Flatten a registry into {(family, labels...): value} with
    auto-generated detector names normalized."""
    snapshot = {}
    for family in obs.registry.collect():
        for sample in family.samples():
            labels = tuple(
                sorted(
                    (key, normalize_label(value))
                    for key, value in sample.labels.items()
                )
            )
            snapshot[(family.name,) + labels] = sample.value
    return snapshot


def raises_equivalently(image: bytes):
    """For strict-mode / malformed-header comparisons: run both readers
    strictly and return (exception type, message) pairs."""

    def _run(fn):
        try:
            fn()
        except PcapFormatError as error:
            return (type(error).__name__, str(error))
        return None

    def _oracle():
        reader = PcapReader(io.BytesIO(image))
        for _ in reader.iter_records(strict=True):
            pass

    def _fast():
        from repro.fastpath.columns import ColumnarPcapReader

        reader = ColumnarPcapReader(io.BytesIO(image))
        for _ in reader.iter_blocks(strict=True):
            pass

    return _run(_oracle), _run(_fast)
