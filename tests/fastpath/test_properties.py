"""Property suite: random well-formed and malformed pcap byte strings
must drive the object oracle and the columnar fastpath to the same
observable state — counts, salvaged-record tallies, quarantine totals,
truncation details, or the same error.

Shrunk failures are committed as a regression corpus under
``tests/fastpath/corpus/`` (content-addressed ``*.pcapbin`` files); the
corpus is replayed deterministically by ``TestCorpus`` on every run so
a once-found divergence can never silently return.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.addresses import IPv4Address, MACAddress
from repro.packet.packet import make_syn, make_syn_ack
from repro.pcap.format import LINKTYPE_ETHERNET, LINKTYPE_RAW, PcapFormatError
from repro.pcap.writer import packets_to_pcap_bytes

from ._oracle import oracle_scan, raises_equivalently

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Detection is only compared when the merged capture implies a sane
#: number of observation periods — a flipped ``ts_sec`` byte can imply
#: billions of 20 s periods, which both pipelines would grind through
#: identically but the test suite cannot afford.
MAX_DETECTION_SPAN_SECONDS = 4000.0


# ----------------------------------------------------------------------
# The equivalence oracle
# ----------------------------------------------------------------------
def _tolerant_outcome(image: bytes):
    """Everything the object pipeline observes from one tolerant scan,
    as a comparable value (or the error it raises)."""
    try:
        reader, classifier, packets = oracle_scan(image)
    except PcapFormatError as error:
        return ("error", type(error).__name__, str(error))
    truncation = reader.truncation
    return (
        "ok",
        reader.records_read,
        reader.skipped_records,
        tuple(packet.timestamp for packet in packets),
        tuple(sorted((k.value, v) for k, v in classifier.stats.counts.items())),
        tuple(
            sorted((k.value, v) for k, v in classifier.stats.rejections.items())
        ),
        classifier.stats.quarantined,
        None
        if truncation is None
        else (str(truncation), truncation.byte_offset, truncation.records_read),
    )


def _fast_outcome(image: bytes):
    from ._oracle import fast_scan, record_columns

    try:
        cols = fast_scan(image)
    except PcapFormatError as error:
        return ("error", type(error).__name__, str(error))
    stats = cols.classifier_stats()
    truncation = cols.truncation
    return (
        "ok",
        cols.records_read,
        cols.skipped_records,
        tuple(record_columns(image)[0]),
        tuple(sorted((k.value, v) for k, v in stats.counts.items())),
        tuple(sorted((k.value, v) for k, v in stats.rejections.items())),
        stats.quarantined,
        None
        if truncation is None
        else (str(truncation), truncation.byte_offset, truncation.records_read),
    )


def check_image_equivalence(image: bytes) -> None:
    """The property both suites enforce for a single capture image."""
    oracle = _tolerant_outcome(image)
    fast = _fast_outcome(image)
    assert fast == oracle
    # Strict mode must raise (or not) equivalently too.
    oracle_error, fast_error = raises_equivalently(image)
    assert fast_error == oracle_error


def check_detection_equivalence(outbound: bytes, inbound: bytes) -> bool:
    """Full-pipeline equivalence when both captures scan cleanly and the
    implied period count is bounded.  Returns True when compared."""
    from ._oracle import assert_detection_identical

    oracle = _tolerant_outcome(outbound)
    oracle_in = _tolerant_outcome(inbound)
    if oracle[0] != "ok" or oracle_in[0] != "ok":
        return False
    timestamps = oracle[3] + oracle_in[3]
    if timestamps and max(timestamps) > MAX_DETECTION_SPAN_SECONDS:
        return False
    assert_detection_identical(outbound, inbound)
    return True


def record_failure(image: bytes) -> Path:
    """Commit a failing image to the regression corpus.  Hypothesis
    replays the shrunk minimal example last, so the final file written
    for a failure is the minimized reproducer."""
    CORPUS_DIR.mkdir(exist_ok=True)
    digest = hashlib.sha256(image).hexdigest()[:16]
    path = CORPUS_DIR / f"{digest}.pcapbin"
    path.write_bytes(image)
    return path


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def handshake_packets(draw):
    timestamp = draw(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)
    )
    src = IPv4Address(draw(st.integers(min_value=0, max_value=0xFFFFFFFF)))
    dst = IPv4Address(draw(st.integers(min_value=0, max_value=0xFFFFFFFF)))
    seq = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    mac = MACAddress(draw(st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)))
    if draw(st.booleans()):
        return make_syn(timestamp, src, dst, seq=seq, src_mac=mac)
    return make_syn_ack(timestamp, src, dst, seq=seq, src_mac=mac)


@st.composite
def mutated_capture(draw):
    """A capture image: well-formed handshake traffic, then zero or more
    byte-level mutations (flips, truncations, splices) — the space where
    parser divergence would hide."""
    packets = draw(st.lists(handshake_packets(), max_size=25))
    if draw(st.booleans()):
        packets.sort(key=lambda packet: packet.timestamp)
    linktype = draw(st.sampled_from((LINKTYPE_ETHERNET, LINKTYPE_RAW)))
    nanosecond = draw(st.booleans())
    image = bytearray(
        packets_to_pcap_bytes(packets, linktype=linktype, nanosecond=nanosecond)
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not image:
            break
        kind = draw(st.sampled_from(("flip", "truncate", "splice")))
        if kind == "flip":
            index = draw(st.integers(min_value=0, max_value=len(image) - 1))
            image[index] ^= draw(st.integers(min_value=1, max_value=255))
        elif kind == "truncate":
            keep = draw(st.integers(min_value=0, max_value=len(image)))
            del image[keep:]
        else:
            index = draw(st.integers(min_value=0, max_value=len(image)))
            blob = draw(st.binary(max_size=40))
            image[index:index] = blob
    return bytes(image)


class TestProperties:
    @given(image=mutated_capture())
    @settings(max_examples=150, deadline=None)
    def test_scan_agrees_on_any_mutation(self, image):
        try:
            check_image_equivalence(image)
        except AssertionError:
            record_failure(image)
            raise

    @given(image=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_scan_agrees_on_raw_garbage(self, image):
        try:
            check_image_equivalence(image)
        except AssertionError:
            record_failure(image)
            raise

    @given(outbound=mutated_capture(), inbound=mutated_capture())
    @settings(max_examples=40, deadline=None)
    def test_detection_agrees_when_scannable(self, outbound, inbound):
        try:
            check_detection_equivalence(outbound, inbound)
        except AssertionError:
            record_failure(outbound)
            record_failure(inbound)
            raise


def _corpus_files():
    if not CORPUS_DIR.is_dir():
        return []
    return sorted(CORPUS_DIR.glob("*.pcapbin"))


class TestCorpus:
    """Deterministic replay of every committed reproducer."""

    @pytest.mark.parametrize(
        "path", _corpus_files(), ids=lambda path: path.stem
    )
    def test_corpus_case(self, path):
        check_image_equivalence(path.read_bytes())

    def test_corpus_is_seeded(self):
        # The seed corpus (built from the known-tricky shapes: clean,
        # cut header, cut body, implausible caplen, bad magic) must be
        # present — an empty corpus means the suite lost its memory.
        assert len(_corpus_files()) >= 5
