"""Streaming-detection tests: lazy merging, constant-memory pcap path,
early stopping."""

import random

from repro.core import SynDog
from repro.core.sniffer import merge_directional_streams
from repro.experiments.streaming import detect_from_pcaps
from repro.packet.packet import make_syn, make_syn_ack
from repro.pcap.writer import write_pcap
from repro.trace.mixer import AttackWindow, mix_flood_into_packets
from repro.trace.profiles import AUCKLAND
from repro.trace.synthetic import generate_packet_trace
from repro.attack import FloodSource


class TestMerge:
    def test_global_timestamp_order(self):
        outbound = [make_syn(t, "152.2.0.1", "8.8.8.8") for t in (1.0, 3.0, 5.0)]
        inbound = [make_syn_ack(t, "8.8.8.8", "152.2.0.1") for t in (2.0, 4.0)]
        merged = list(merge_directional_streams(outbound, inbound))
        times = [p.timestamp for p, _ in merged]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [is_out for _, is_out in merged] == [True, False, True, False, True]

    def test_ties_break_outbound_first(self):
        outbound = [make_syn(1.0, "152.2.0.1", "8.8.8.8")]
        inbound = [make_syn_ack(1.0, "8.8.8.8", "152.2.0.1")]
        merged = list(merge_directional_streams(outbound, inbound))
        assert [is_out for _, is_out in merged] == [True, False]

    def test_laziness(self):
        # Generators must not be exhausted ahead of consumption.
        pulled = []

        def lazy_outbound():
            for t in (1.0, 10.0):
                pulled.append(t)
                yield make_syn(t, "152.2.0.1", "8.8.8.8")

        stream = merge_directional_streams(lazy_outbound(), iter(()))
        next(stream)
        assert pulled == [1.0, 10.0] or pulled == [1.0]  # at most one lookahead


class TestStreamDetection:
    def test_matches_batch_path(self):
        rng = random.Random(1)
        trace = generate_packet_trace(AUCKLAND, seed=1, duration=1200.0)
        mixed = mix_flood_into_packets(
            trace, FloodSource(pattern=10.0), AttackWindow(240.0, 600.0), rng
        )
        # The batch path: both streams materialized and sorted together
        # (stable, so ties stay outbound-first).
        batch = SynDog()
        for packet, is_outbound in sorted(
            [(packet, True) for packet in mixed.outbound]
            + [(packet, False) for packet in mixed.inbound],
            key=lambda item: item[0].timestamp,
        ):
            if is_outbound:
                batch.observe_outbound(packet)
            else:
                batch.observe_inbound(packet)
        batch.flush(end_time=1200.0)
        streamed = SynDog().observe_streams(
            iter(mixed.outbound), iter(mixed.inbound), end_time=1200.0
        )
        assert streamed.alarmed
        assert streamed == batch.result()


class TestPcapPath:
    def test_detect_from_pcaps(self, tmp_path):
        rng = random.Random(3)
        trace = generate_packet_trace(AUCKLAND, seed=3, duration=1200.0)
        mixed = mix_flood_into_packets(
            trace, FloodSource(pattern=10.0), AttackWindow(240.0, 600.0), rng
        )
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        write_pcap(out_path, mixed.outbound)
        write_pcap(in_path, mixed.inbound)
        result, dog = detect_from_pcaps(out_path, in_path)
        assert result.alarmed
        assert dog.k_bar > 0

    def test_clean_pcaps_quiet(self, tmp_path):
        trace = generate_packet_trace(AUCKLAND, seed=4, duration=600.0)
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        write_pcap(out_path, trace.outbound)
        write_pcap(in_path, trace.inbound)
        result, _dog = detect_from_pcaps(out_path, in_path)
        assert not result.alarmed


class TestCountsFromPcaps:
    def test_aggregation_matches_to_counts(self, tmp_path):
        from repro.experiments.streaming import counts_from_pcaps

        trace = generate_packet_trace(AUCKLAND, seed=5, duration=400.0)
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        write_pcap(out_path, trace.outbound)
        write_pcap(in_path, trace.inbound)
        streamed = counts_from_pcaps(out_path, in_path, period=20.0)
        direct = trace.to_counts(period=20.0)
        # The streaming path ends at the last packet; compare the
        # overlapping prefix.
        overlap = min(len(streamed.counts), len(direct.counts))
        assert streamed.counts[:overlap] == direct.counts[:overlap]

    def test_detector_runs_on_aggregated_counts(self, tmp_path):
        from repro.experiments.streaming import counts_from_pcaps

        trace = generate_packet_trace(AUCKLAND, seed=6, duration=400.0)
        out_path = tmp_path / "out.pcap"
        in_path = tmp_path / "in.pcap"
        write_pcap(out_path, trace.outbound)
        write_pcap(in_path, trace.inbound)
        counts = counts_from_pcaps(out_path, in_path)
        assert not SynDog().observe_counts(counts.counts).alarmed
