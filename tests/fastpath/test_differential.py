"""Differential suite: the columnar fastpath versus the object oracle.

Every test runs the same capture bytes through both pipelines and
asserts byte-identity — per-period counts, classifier rejection and
quarantine statistics, DetectionResult, checkpoints, reader counters
and metric totals.  Scenarios cover all builtin site profiles, a
flash-crowd mix, a SYN flood, and every builtin fault schedule plus
heavier direct frame damage.
"""

from __future__ import annotations

import io
import random
from itertools import cycle, islice
from time import perf_counter

import pytest

from repro.core.parameters import DEFAULT_PARAMETERS, SynDogParameters
from repro.experiments.streaming import counts_from_pcaps, detect_from_pcaps
from repro.fastpath.columns import (
    DEFAULT_BLOCK_BYTES,
    ROW_BYTES,
    ColumnarPcapReader,
)
from repro.fastpath.pipeline import detect_from_sources
from repro.faults import BUILTIN_SCHEDULES, FaultInjector
from repro.faults.models import (
    corrupt_header,
    truncate_frame,
    truncate_pcap_image,
)
from repro.obs.runtime import enabled_instrumentation
from repro.packet.classify import PacketClass
from repro.packet.packet import make_syn, make_syn_ack
from repro.pcap.format import LINKTYPE_ETHERNET, LINKTYPE_RAW
from repro.pcap.writer import PcapWriter, packets_to_pcap_bytes
from repro.trace.profiles import SITE_PROFILES
from repro.trace.synthetic import generate_packet_trace

from ._oracle import (
    assert_capture_equivalent,
    assert_detection_identical,
    fast_scan,
    metric_totals,
    object_detect,
    record_columns,
)

#: The block sizes the block-size suites sweep.  70 bytes is about one
#: record per block, so every period boundary is split across blocks;
#: 997 is a deliberately unaligned stride; 1 << 22 holds a whole test
#: capture in one block.
BLOCK_SIZES = (70, 997, 4096, 1 << 22)


def _image(records, linktype: int = LINKTYPE_ETHERNET, **options) -> bytes:
    """A pcap image of ``(timestamp, wire bytes)`` records."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer, linktype=linktype, **options)
    for timestamp, wire in records:
        writer.write_raw(timestamp, wire)
    return buffer.getvalue()


def _assert_identical_at_every_block_size(outbound: bytes, inbound: bytes):
    for block_bytes in BLOCK_SIZES:
        assert_capture_equivalent(outbound, block_bytes=block_bytes)
        assert_capture_equivalent(inbound, block_bytes=block_bytes)
        assert_detection_identical(outbound, inbound, block_bytes=block_bytes)


def _site_images(site: str, seed: int = 7, duration: float = 240.0):
    trace = generate_packet_trace(SITE_PROFILES[site], seed=seed, duration=duration)
    return (
        packets_to_pcap_bytes(trace.outbound),
        packets_to_pcap_bytes(trace.inbound),
    )


def _faulty_images(schedule_name: str, seed: int, site: str = "unc"):
    """Serialize a site trace through the fault injector's packet, wire
    and capture surfaces — the same composition the chaos harness uses."""
    trace = generate_packet_trace(
        SITE_PROFILES[site], seed=seed, duration=240.0
    )
    injector = FaultInjector(BUILTIN_SCHEDULES[schedule_name], seed=seed)

    def build(packets):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for packet in injector.apply_to_packets(packets):
            writer.write_raw(
                packet.timestamp,
                injector.apply_to_wire(packet.encode_frame()),
            )
        return injector.apply_to_pcap(buffer.getvalue())

    return build(list(trace.outbound)), build(list(trace.inbound))


class TestSiteProfiles:
    @pytest.mark.parametrize("site", sorted(SITE_PROFILES))
    def test_every_builtin_profile_is_byte_identical(self, site):
        outbound, inbound = _site_images(site)
        assert_capture_equivalent(outbound)
        assert_capture_equivalent(inbound)
        assert_detection_identical(outbound, inbound)

    def test_counts_from_pcaps_identical(self, tmp_path):
        outbound, inbound = _site_images("harvard")
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        out_path.write_bytes(outbound)
        in_path.write_bytes(inbound)
        oracle = counts_from_pcaps(out_path, in_path, fastpath=False)
        fast = counts_from_pcaps(out_path, in_path, fastpath=True)
        assert fast.counts == oracle.counts
        assert fast.period == oracle.period
        assert fast.metadata == oracle.metadata

    def test_detect_from_pcaps_dispatch(self, tmp_path):
        outbound, inbound = _site_images("lbl")
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        out_path.write_bytes(outbound)
        in_path.write_bytes(inbound)
        oracle_result, _ = detect_from_pcaps(out_path, in_path, fastpath=False)
        fast_result, _ = detect_from_pcaps(out_path, in_path, fastpath=True)
        assert fast_result == oracle_result


class TestTrafficMixes:
    def test_flashcrowd_mix(self):
        """A legitimate surge: every extra SYN is answered, interleaved
        across both captures."""
        trace = generate_packet_trace(
            SITE_PROFILES["auckland"], seed=3, duration=240.0
        )
        rng = random.Random(99)
        surge_out = list(trace.outbound)
        surge_in = list(trace.inbound)
        for i in range(4000):
            t = 60.0 + i * 0.03 + rng.random() * 0.01
            client = f"152.2.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            server = f"10.9.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            surge_out.append(make_syn(t, client, server, seq=i))
            surge_in.append(make_syn_ack(t + 0.002, server, client, seq=i))
        surge_out.sort(key=lambda p: p.timestamp)
        surge_in.sort(key=lambda p: p.timestamp)
        outbound = packets_to_pcap_bytes(surge_out)
        inbound = packets_to_pcap_bytes(surge_in)
        assert_capture_equivalent(outbound)
        assert_capture_equivalent(inbound)
        oracle_result, fast_result = assert_detection_identical(
            outbound, inbound
        )
        # Negative control: the answered surge must not alarm.
        assert not oracle_result.alarmed

    def test_syn_flood_alarms_identically(self):
        outbound = packets_to_pcap_bytes(
            [make_syn(i * 0.05, "152.2.1.1", "10.0.0.1") for i in range(6000)]
        )
        inbound = packets_to_pcap_bytes(
            [
                make_syn_ack(i * 0.5 + 0.01, "10.0.0.1", "152.2.1.1")
                for i in range(80)
            ]
        )
        oracle_result, fast_result = assert_detection_identical(
            outbound, inbound
        )
        assert oracle_result.alarmed


class TestFaultScenarios:
    @pytest.mark.parametrize("schedule", sorted(BUILTIN_SCHEDULES))
    def test_every_builtin_schedule(self, schedule):
        outbound, inbound = _faulty_images(schedule, seed=11)
        assert_capture_equivalent(outbound)
        assert_capture_equivalent(inbound)
        assert_detection_identical(outbound, inbound)

    def test_heavy_frame_damage(self):
        """Beyond the builtin schedules: aggressive truncation and
        header corruption on most frames, plus a mid-record capture cut."""
        trace = generate_packet_trace(
            SITE_PROFILES["unc"], seed=23, duration=240.0
        )
        rng = random.Random(5)

        def damage(packets, cut):
            buffer = io.BytesIO()
            writer = PcapWriter(buffer)
            for packet in packets:
                raw = packet.encode_frame()
                roll = rng.random()
                if roll < 0.3:
                    raw = truncate_frame(raw, rng)
                elif roll < 0.6:
                    raw = corrupt_header(raw, rng)
                writer.write_raw(packet.timestamp, raw)
            image = buffer.getvalue()
            return truncate_pcap_image(image, cut) if cut else image

        outbound = damage(list(trace.outbound), cut=0.83)
        inbound = damage(list(trace.inbound), cut=0.0)
        out_cols = assert_capture_equivalent(outbound)
        assert_capture_equivalent(inbound)
        # The cut capture must actually exercise the tolerant-truncation
        # path, and the damage must hit the quarantine accounting.
        assert out_cols.truncation is not None
        assert out_cols.classifier_stats().quarantined > 0
        assert_detection_identical(outbound, inbound)

    def test_reordered_captures_use_exact_merge(self):
        """Reordered captures: the fastpath's per-capture running maxima
        must place every packet where the heapq merge does."""
        from repro.faults.models import reorder_stream

        trace = generate_packet_trace(
            SITE_PROFILES["lbl"], seed=2, duration=240.0
        )
        rng = random.Random(17)
        outbound = packets_to_pcap_bytes(
            reorder_stream(trace.outbound, rng, probability=0.5, window=8)
        )
        inbound = packets_to_pcap_bytes(
            reorder_stream(trace.inbound, rng, probability=0.5, window=8)
        )
        # t0 = 0.3 s is not exact in binary: boundaries agree only if
        # both pipelines take them from the one clock.
        for parameters in (
            DEFAULT_PARAMETERS, SynDogParameters(observation_period=0.3)
        ):
            assert_detection_identical(
                outbound, inbound, parameters=parameters
            )


class TestBoundarySplits:
    """Satellite fix check: quarantine stats and per-period counts must
    be invariant to where record blocks split — including a batch split
    across a period boundary mid-block."""

    def _images_with_quarantine(self):
        rng = random.Random(31)
        packets = []
        # Three periods of traffic; every 5th frame is damaged so
        # quarantine rejections land in every period.
        for i in range(900):
            t = i * 0.07  # crosses the 20 s boundary mid-stream
            packets.append(make_syn(t, "152.2.1.1", "10.0.0.1", seq=i))
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for i, packet in enumerate(packets):
            raw = packet.encode_frame()
            if i % 5 == 0:
                raw = raw[: 14 + 20 + rng.randrange(0, 19)]  # cut inside TCP
            writer.write_raw(packet.timestamp, raw)
        outbound = buffer.getvalue()
        inbound = packets_to_pcap_bytes(
            [
                make_syn_ack(i * 0.11, "10.0.0.1", "152.2.1.1")
                for i in range(500)
            ]
        )
        return outbound, inbound

    def test_block_size_invariance(self):
        outbound, inbound = self._images_with_quarantine()
        reference = fast_scan(outbound)
        reference_stats = reference.classifier_stats()
        assert reference_stats.quarantined > 0
        for block_bytes in BLOCK_SIZES:
            cols = fast_scan(outbound, block_bytes=block_bytes)
            stats = cols.classifier_stats()
            assert stats.counts == reference_stats.counts
            assert stats.rejections == reference_stats.rejections
            assert stats.quarantined == reference_stats.quarantined
            assert cols.records_read == reference.records_read
            assert cols.skipped_records == reference.skipped_records
            assert_detection_identical(
                outbound, inbound, block_bytes=block_bytes
            )

    def test_matches_oracle_at_every_block_size(self):
        outbound, inbound = self._images_with_quarantine()
        assert_capture_equivalent(outbound)
        oracle_ts, oracle_codes, oracle_steps = record_columns(outbound)
        for block_bytes in (70, 997):
            timestamps, codes, steps = record_columns(
                outbound, block_bytes=block_bytes
            )
            assert timestamps == oracle_ts
            assert codes == oracle_codes
            assert steps == oracle_steps


class TestMetricsParity:
    def test_counter_totals_identical(self):
        outbound, inbound = _site_images("harvard", seed=5, duration=200.0)
        snapshots = {}
        for fastpath in (False, True):
            obs = enabled_instrumentation()
            if fastpath:
                detect_from_sources(outbound, inbound, obs=obs)
            else:
                object_detect(outbound, inbound, obs=obs)
            snapshots[fastpath] = metric_totals(obs)
        assert snapshots[True] == snapshots[False]


class TestEdgeCases:
    def test_empty_captures(self):
        empty = packets_to_pcap_bytes([])
        assert_capture_equivalent(empty)
        assert_detection_identical(empty, empty)

    def test_one_direction_empty(self):
        outbound, _ = _site_images("lbl", seed=1, duration=120.0)
        empty = packets_to_pcap_bytes([])
        assert_detection_identical(outbound, empty)
        assert_detection_identical(empty, outbound)

    def test_raw_linktype_capture(self):
        trace = generate_packet_trace(
            SITE_PROFILES["lbl"], seed=9, duration=150.0
        )
        outbound = packets_to_pcap_bytes(trace.outbound, linktype=LINKTYPE_RAW)
        inbound = packets_to_pcap_bytes(trace.inbound, linktype=LINKTYPE_RAW)
        assert_capture_equivalent(outbound)
        assert_capture_equivalent(inbound)
        assert_detection_identical(outbound, inbound)
        _assert_identical_at_every_block_size(outbound, inbound)

    def test_nanosecond_and_big_endian_captures(self):
        trace = generate_packet_trace(
            SITE_PROFILES["lbl"], seed=4, duration=150.0
        )
        for nano in (False, True):
            image = packets_to_pcap_bytes(trace.outbound, nanosecond=nano)
            assert_capture_equivalent(image)
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, byte_order=">")
        for packet in trace.outbound:
            writer.write_packet(packet)
        assert_capture_equivalent(buffer.getvalue())
        # Timestamps and lengths come from strided views of the header
        # rows: each byte order and timestamp unit, at every block size.
        for options in (
            {"nanosecond": True},
            {"byte_order": ">"},
            {"byte_order": ">", "nanosecond": True},
        ):
            outbound, inbound = (
                _image(
                    ((p.timestamp, p.encode_frame()) for p in packets),
                    **options,
                )
                for packets in (trace.outbound, trace.inbound)
            )
            _assert_identical_at_every_block_size(outbound, inbound)


class TestHeaderRows:
    """Each record is read as one 64-byte header row: its record header
    and first 48 captured bytes.  A record shorter than that borrows the
    next record's bytes, or the zero padding at the end of the buffer,
    and every such byte must stay masked."""

    def _handshakes(self, count: int = 400):
        syns = [
            make_syn(i * 0.15, "152.2.1.1", "10.0.0.1", seq=i)
            for i in range(count)
        ]
        synacks = [
            make_syn_ack(i * 0.15 + 0.01, "10.0.0.1", "152.2.1.1", seq=i)
            for i in range(count)
        ]
        return syns, synacks

    def test_short_final_record_at_buffer_end(self):
        syns, synacks = self._handshakes()
        end = syns[-1].timestamp + 1.0
        # A 42-byte non-IP (ARP) frame is the last record of the file,
        # so its row runs past the end of every block's buffer.
        arp = bytes(12) + b"\x08\x06" + bytes(28)
        outbound = _image(
            [(p.timestamp, p.encode_frame()) for p in syns] + [(end, arp)]
        )
        inbound = packets_to_pcap_bytes(synacks)
        assert fast_scan(outbound).skipped_records == 1
        _assert_identical_at_every_block_size(outbound, inbound)
        # LINKTYPE_RAW: a 20-byte record, a SYN cut after its IP header.
        outbound = _image(
            [(p.timestamp, p.encode_ip()) for p in syns]
            + [(end, syns[0].encode_ip()[:20])],
            linktype=LINKTYPE_RAW,
        )
        inbound = packets_to_pcap_bytes(synacks, linktype=LINKTYPE_RAW)
        assert fast_scan(outbound).classifier_stats().quarantined == 1
        _assert_identical_at_every_block_size(outbound, inbound)

    def test_one_run_block_ends_flush_with_buffer(self):
        """Raw-IP SYNs are 56-byte records, shorter than a row; reads of
        a whole number of records make each block one run whose last
        rows overhang the buffer."""
        syns, synacks = self._handshakes()
        outbound = packets_to_pcap_bytes(syns, linktype=LINKTYPE_RAW)
        inbound = packets_to_pcap_bytes(synacks, linktype=LINKTYPE_RAW)
        record = 16 + len(syns[0].encode_ip())
        assert record < ROW_BYTES
        reader = ColumnarPcapReader.from_bytes(outbound)
        blocks = list(reader.iter_blocks(block_bytes=50 * record))
        assert [len(block) for block in blocks] == [50] * 8
        for block_bytes in (record, 50 * record):
            cols = assert_capture_equivalent(outbound, block_bytes=block_bytes)
            assert cols.classifier_stats().counts[PacketClass.SYN] == 400
            assert_detection_identical(
                outbound, inbound, block_bytes=block_bytes
            )
        _assert_identical_at_every_block_size(outbound, inbound)


class TestMixedLengths:
    """Captures whose frame length changes from record to record: the
    header walk ends a run at every change."""

    #: Trailing padding that turns 54-byte handshake frames into 54, 60,
    #: 66, 74, 114 and 1514-byte frames.
    PADDING = (0, 6, 12, 20, 60, 1460)

    def _padded(self, packets, shift: int) -> bytes:
        pads = islice(cycle(self.PADDING), shift, None)
        return _image(
            (p.timestamp, p.encode_frame() + bytes(pad))
            for p, pad in zip(packets, pads)
        )

    def test_mixed_frame_lengths_match_oracle_at_every_block_size(self):
        trace = generate_packet_trace(
            SITE_PROFILES["harvard"], seed=13, duration=240.0
        )
        outbound = self._padded(trace.outbound, 0)
        inbound = self._padded(trace.inbound, 3)
        _assert_identical_at_every_block_size(outbound, inbound)

    def test_alternating_lengths_scan_in_linear_time(self):
        """A 4 MB capture whose record length changes every record,
        timed against as many records of one length.  The run walk
        costs it about 15x the uniform scan; a walk that reads every
        remaining header of the block for each run is quadratic here,
        over 2000x at the default block size."""
        frame = make_syn(0.0, "152.2.1.1", "10.0.0.1").encode_frame()
        count = 46_000

        def scan_seconds(pads, repeats: int) -> float:
            image = _image(
                (i * 0.001, frame + bytes(pad))
                for i, pad in zip(range(count), cycle(pads))
            )
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                cols = fast_scan(image, block_bytes=DEFAULT_BLOCK_BYTES)
                best = min(best, perf_counter() - t0)
            assert cols.classifier_stats().counts[PacketClass.SYN] == count
            return best

        uniform = scan_seconds((0,), repeats=3)
        alternating = scan_seconds((0, 6, 12, 60), repeats=2)
        assert alternating < 150 * uniform, (
            f"alternating {alternating:.3f} s, uniform {uniform:.4f} s"
        )
