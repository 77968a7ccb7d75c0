"""Two-interface timestamp-merge equivalence.

The object pipeline merges the interface captures lazily with
``heapq.merge`` (``core.sniffer.merge_directional_streams``, ties
outbound-first) and feeds the merge to a ``CountExchange``.  The fastpath never merges: block by block, it
counts each lane against the period boundaries at its packets'
per-capture running maxima.  These tests pin its per-period counts to
the exchange's — on identical captures, clock-skewed captures, jittered
and shuffled (unsorted) captures, and empty ones — and a property pins
them to a ``heapq`` reference on drawn captures cut into drawn blocks.
"""

from __future__ import annotations

import heapq
import io
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sniffer import CountExchange, merge_directional_streams
from repro.fastpath.classify import (
    CLASS_NON_TCP_PROTOCOL,
    CLASS_SKIP,
    CLASS_SYN,
    CLASS_SYN_ACK,
    CLASS_TCP_OTHER,
)
from repro.fastpath.pipeline import CaptureSummary, _close_periods, scan_pair
from repro.faults.models import skew_timestamp
from repro.pcap.reader import PcapReader
from repro.pcap.writer import packets_to_pcap_bytes
from repro.trace.profiles import SITE_PROFILES
from repro.trace.synthetic import generate_packet_trace

from ._oracle import assert_detection_identical


def _oracle_counts(outbound_image: bytes, inbound_image: bytes, period: float):
    """Per-period (SYN, SYN/ACK) counts of the object pipeline: the
    heapq merge of both captures fed packet by packet to an exchange,
    then flushed."""
    exchange = CountExchange(observation_period=period)
    reports = []
    for packet, is_outbound in merge_directional_streams(
        PcapReader(io.BytesIO(outbound_image)).iter_packets(strict=False),
        PcapReader(io.BytesIO(inbound_image)).iter_packets(strict=False),
    ):
        observe = (
            exchange.observe_outbound if is_outbound else exchange.observe_inbound
        )
        reports.extend(observe(packet))
    reports.extend(exchange.flush())
    return (
        [report.syn_count for report in reports],
        [report.synack_count for report in reports],
    )


def _assert_merges_equal(outbound_image: bytes, inbound_image: bytes):
    """The fastpath's per-period counts equal the exchange's, at the
    default period and at 0.3 s, which is not exact in binary."""
    for period in (20.0, 0.3):
        out, inb = scan_pair(outbound_image, inbound_image, period)
        fast = _close_periods(
            CountExchange(observation_period=period), out, inb
        )
        assert list(fast) == list(
            _oracle_counts(outbound_image, inbound_image, period)
        )


def _heapq_counts(out, inb, clock):
    """Reference periodization of two ``(timestamps, codes)`` captures:
    ``heapq.merge`` of the tagged decoded records, advancing the period
    while a record reaches the next boundary, as ``CountExchange``
    does; the last entry is the flushed period."""
    def tagged(capture, tag: int):
        return (
            (t, tag, code) for t, code in zip(*capture) if code != CLASS_SKIP
        )

    syn, synack = [0], [0]
    k = 0
    for t, tag, code in heapq.merge(tagged(out, 0), tagged(inb, 1)):
        while t >= clock.start_of(k + 1):
            k += 1
            syn.append(0)
            synack.append(0)
        if tag == 0 and code == CLASS_SYN:
            syn[k] += 1
        elif tag == 1 and code == CLASS_SYN_ACK:
            synack[k] += 1
    return syn, synack


def _site_images(seed: int = 7, duration: float = 240.0):
    trace = generate_packet_trace(
        SITE_PROFILES["harvard"], seed=seed, duration=duration
    )
    return list(trace.outbound), list(trace.inbound)


class TestMergeEquivalence:
    def test_identical_captures(self):
        """Both interfaces carrying the same timestamps: every merge
        step is a tie, so the outbound-first rule decides the whole
        order — the harshest test of tie-breaking."""
        outbound, _ = _site_images()
        image = packets_to_pcap_bytes(outbound)
        _assert_merges_equal(image, image)
        assert_detection_identical(image, image)

    def test_disjoint_and_interleaved_captures(self):
        outbound, inbound = _site_images()
        _assert_merges_equal(
            packets_to_pcap_bytes(outbound), packets_to_pcap_bytes(inbound)
        )

    def test_skewed_clock_offset(self):
        """A constant clock offset between the two capture hosts: each
        capture stays sorted, and the periods must still be the
        oracle's."""
        outbound, inbound = _site_images()
        rng = random.Random(0)
        for offset in (-7.5, -0.001, 0.001, 37.0):
            skewed = [
                packet.at(max(0.0, skew_timestamp(packet.timestamp, rng, offset=offset)))
                for packet in inbound
            ]
            out_image = packets_to_pcap_bytes(outbound)
            in_image = packets_to_pcap_bytes(skewed)
            _assert_merges_equal(out_image, in_image)
            assert_detection_identical(out_image, in_image)

    def test_skewed_clock_jitter_unsorted(self):
        """Jitter large enough to reorder neighbours: the running max
        of the merge moves ahead of packets, and the counts must stay
        the oracle's."""
        outbound, inbound = _site_images()
        rng = random.Random(3)
        jittered = [
            packet.at(
                max(0.0, skew_timestamp(packet.timestamp, rng, jitter=5.0))
            )
            for packet in inbound
        ]
        timestamps = [packet.timestamp for packet in jittered]
        assert timestamps != sorted(timestamps)  # really unsorted
        out_image = packets_to_pcap_bytes(outbound)
        in_image = packets_to_pcap_bytes(jittered)
        _assert_merges_equal(out_image, in_image)
        assert_detection_identical(out_image, in_image)

    def test_both_sides_unsorted(self):
        outbound, inbound = _site_images(seed=11)
        rng = random.Random(9)
        shuffle_out = list(outbound)
        rng.shuffle(shuffle_out)
        shuffle_in = list(inbound)
        rng.shuffle(shuffle_in)
        out_image = packets_to_pcap_bytes(shuffle_out)
        in_image = packets_to_pcap_bytes(shuffle_in)
        _assert_merges_equal(out_image, in_image)
        assert_detection_identical(out_image, in_image)

    @settings(max_examples=400, deadline=None)
    @given(case=st.data())
    def test_lane_counts_equal_heapq_reference(self, case):
        """On two captures in any order, cut into blocks anywhere,
        counting each lane at its packets' per-capture running maxima
        equals the heapq merge reference.  Stamps exactly on a
        boundary, shared by both directions, sit where a tie or an
        off-by-one would show; a sorted draw keeps the time-sorted case
        as likely as the reordered one.  Undecodable (SKIP) records,
        whole blocks of them included, must move nothing."""
        clock = CountExchange(
            observation_period=case.draw(st.sampled_from([20.0, 0.3])),
            start_time=case.draw(st.sampled_from([0.0, 15.0])),
        )
        horizon = clock.start_of(12)
        stamps = st.one_of(
            st.integers(0, 12).map(clock.start_of),  # on a boundary
            st.floats(0.0, horizon),  # before the origin when it is 15
            st.sampled_from([0.0, 1.0, clock.origin + 0.1]),
        )
        codes = st.sampled_from([
            CLASS_SYN, CLASS_SYN_ACK, CLASS_TCP_OTHER, CLASS_NON_TCP_PROTOCOL,
            CLASS_SKIP,
        ])

        def capture():
            timestamps = case.draw(st.lists(stamps, max_size=40))
            if case.draw(st.booleans()):
                timestamps.sort()
            n = len(timestamps)
            return timestamps, case.draw(st.lists(codes, min_size=n, max_size=n))

        def folded(capture, lane: int) -> CaptureSummary:
            timestamps, record_codes = capture
            cuts = sorted(case.draw(st.lists(
                st.integers(0, len(timestamps)), max_size=6
            )))
            summary = CaptureSummary(lane=lane)
            for lo, hi in zip([0] + cuts, cuts + [len(timestamps)]):
                summary.fold(
                    np.array(timestamps[lo:hi], dtype=np.float64),
                    np.array(record_codes[lo:hi], dtype=np.uint8),
                    clock,
                )
            return summary

        out, inb = capture(), capture()
        lanes = _close_periods(
            clock, folded(out, CLASS_SYN), folded(inb, CLASS_SYN_ACK)
        )
        assert list(lanes) == list(_heapq_counts(out, inb, clock))

    def test_empty_sides(self):
        outbound, _ = _site_images(seed=2, duration=120.0)
        image = packets_to_pcap_bytes(outbound)
        empty = packets_to_pcap_bytes([])
        _assert_merges_equal(image, empty)
        _assert_merges_equal(empty, image)
        _assert_merges_equal(empty, empty)
