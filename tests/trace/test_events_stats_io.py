"""Tests for trace containers, statistics helpers, and persistence."""

import json
import math

import pytest

from repro.packet.packet import make_syn, make_syn_ack
from repro.trace.events import CountTrace, PacketTrace, TraceMetadata
from repro.trace.io import (
    load_count_trace,
    load_packet_trace_jsonl,
    save_count_trace,
    save_packet_trace_jsonl,
)
from repro.trace.profiles import HARVARD
from repro.trace.stats import (
    index_of_dispersion,
    pearson_correlation,
    per_bin_series,
    summarize_counts,
    variance_time_hurst,
)
from repro.trace.synthetic import generate_packet_trace


def small_counts():
    return CountTrace(
        metadata=TraceMetadata(name="t", duration=80.0, bidirectional=False),
        period=20.0,
        counts=((10, 9), (12, 12), (11, 10), (15, 13)),
    )


class TestCountTrace:
    def test_derived_series(self):
        trace = small_counts()
        assert trace.syn_counts == [10, 12, 11, 15]
        assert trace.synack_counts == [9, 12, 10, 13]
        assert trace.differences == [1, 0, 1, 2]
        assert trace.mean_synack == pytest.approx(11.0)
        assert trace.duration == 80.0
        assert trace.times() == [20.0, 40.0, 60.0, 80.0]

    def test_slice(self):
        trace = small_counts().slice(1, 3)
        assert trace.counts == ((12, 12), (11, 10))

    def test_rebinned(self):
        trace = small_counts().rebinned(2)
        assert trace.period == 40.0
        assert trace.counts == ((22, 21), (26, 23))

    def test_rebinned_validation(self):
        with pytest.raises(ValueError):
            small_counts().rebinned(0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTrace(
                metadata=TraceMetadata(name="x", duration=20.0, bidirectional=False),
                period=20.0,
                counts=((-1, 0),),
            )

    @pytest.mark.parametrize("period", [0.0, -20.0, math.nan, math.inf])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match="period must be finite"):
            CountTrace(
                metadata=TraceMetadata(name="x", duration=20.0, bidirectional=False),
                period=period,
                counts=((1, 1),),
            )

    def test_traffic_type_label(self):
        assert small_counts().metadata.traffic_type == "Uni-directional"


class TestPacketTrace:
    def test_unsorted_stream_rejected(self):
        packets = (
            make_syn(5.0, "1.1.1.1", "2.2.2.2"),
            make_syn(1.0, "1.1.1.1", "2.2.2.2"),
        )
        with pytest.raises(ValueError):
            PacketTrace(
                metadata=TraceMetadata(name="x", duration=10.0, bidirectional=False),
                outbound=packets,
                inbound=(),
            )

    def test_to_counts(self):
        outbound = tuple(
            make_syn(t, "152.2.0.1", "8.8.8.8") for t in (1.0, 2.0, 21.0)
        )
        inbound = (make_syn_ack(1.5, "8.8.8.8", "152.2.0.1"),)
        trace = PacketTrace(
            metadata=TraceMetadata(name="x", duration=40.0, bidirectional=False),
            outbound=outbound,
            inbound=inbound,
        )
        counts = trace.to_counts(period=20.0)
        assert counts.counts == ((2, 1), (1, 0))

    def test_merged_order(self):
        outbound = (make_syn(2.0, "1.1.1.1", "2.2.2.2"),)
        inbound = (make_syn_ack(1.0, "2.2.2.2", "1.1.1.1"),)
        trace = PacketTrace(
            metadata=TraceMetadata(name="x", duration=10.0, bidirectional=False),
            outbound=outbound,
            inbound=inbound,
        )
        assert [p.timestamp for p in trace.merged()] == [1.0, 2.0]


class TestStats:
    def test_pearson_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_anticorrelation(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_constant_series(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation([1], [1, 2])
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])

    def test_dispersion_of_constant_is_zero(self):
        assert index_of_dispersion([5, 5, 5, 5]) == 0.0

    def test_hurst_needs_enough_samples(self):
        with pytest.raises(ValueError):
            variance_time_hurst([1.0] * 8)

    def test_summarize(self):
        stats = summarize_counts(small_counts())
        assert stats.num_periods == 4
        assert stats.mean_syn == pytest.approx(12.0)
        assert stats.max_difference == 2
        assert stats.mean_normalized_difference == pytest.approx(1.0 / 11.0)

    def test_duration_labels(self):
        stats = summarize_counts(small_counts())
        assert stats.duration == "1 minutes"

    def test_per_bin_series_bidirectional_counts_both_streams(self):
        outbound = (
            make_syn(1.0, "1.1.1.1", "2.2.2.2"),
            make_syn_ack(2.0, "1.1.1.1", "2.2.2.2"),
        )
        inbound = (
            make_syn(3.0, "2.2.2.2", "1.1.1.1"),
            make_syn_ack(4.0, "2.2.2.2", "1.1.1.1"),
        )
        bidirectional = PacketTrace(
            metadata=TraceMetadata(name="x", duration=60.0, bidirectional=True),
            outbound=outbound,
            inbound=inbound,
        )
        syns, synacks = per_bin_series(bidirectional, bin_seconds=60.0)
        assert (syns[0], synacks[0]) == (2, 2)
        unidirectional = PacketTrace(
            metadata=TraceMetadata(name="x", duration=60.0, bidirectional=False),
            outbound=outbound,
            inbound=inbound,
        )
        syns, synacks = per_bin_series(unidirectional, bin_seconds=60.0)
        # Outgoing SYNs and incoming SYN/ACKs only.
        assert (syns[0], synacks[0]) == (1, 1)


class TestIO:
    def test_count_round_trip(self, tmp_path):
        trace = small_counts()
        path = tmp_path / "trace.csv"
        save_count_trace(trace, path)
        loaded = load_count_trace(path)
        assert loaded.counts == trace.counts
        assert loaded.period == trace.period
        assert loaded.metadata.name == trace.metadata.name
        assert loaded.metadata.bidirectional == trace.metadata.bidirectional

    def test_count_load_rejects_headerless(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(ValueError):
            load_count_trace(path)

    def test_count_load_rejects_a_trace_without_count_lines(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_count_trace(small_counts(), path)
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(ValueError, match="no count lines"):
            load_count_trace(path)

    def test_count_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('# {"format_version": 1, "name": "x", "duration": 20.0, '
                        '"bidirectional": false, "period": 20.0}\n0,1\n')
        with pytest.raises(ValueError):
            load_count_trace(path)

    @pytest.mark.parametrize("header, message", [
        ({"duration": 20.0, "bidirectional": False, "period": 20.0},
         "header lacks name"),
        ({"name": "x", "bidirectional": False}, "header lacks duration, period"),
        ({"name": "x", "duration": 20.0, "bidirectional": False,
          "period": "20"}, "period must be a number: '20'"),
        ({"name": "x", "duration": 20.0, "bidirectional": False,
          "period": True}, "period must be a number: True"),
        ({"name": "x", "duration": 20.0, "bidirectional": False,
          "period": -20.0}, "period must be finite and positive: -20.0"),
        ({"name": "x", "duration": "x", "bidirectional": False,
          "period": 20.0}, "duration must be a number: 'x'"),
        ({"name": "x", "duration": None, "bidirectional": False,
          "period": 20.0}, "duration must be a number: None"),
        ({"name": "x", "duration": -1.0, "bidirectional": False,
          "period": 20.0}, "duration must be finite and >= 0: -1.0"),
        ({"name": "x", "duration": float("inf"), "bidirectional": False,
          "period": 20.0}, "duration must be finite and >= 0: inf"),
    ])
    def test_count_load_rejects_bad_header(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        header = {"format_version": 1, **header}
        path.write_text(f"# {json.dumps(header)}\n0,1,2\n")
        with pytest.raises(ValueError) as raised:
            load_count_trace(path)
        assert str(raised.value) == message

    def test_packet_jsonl_round_trip(self, tmp_path):
        trace = generate_packet_trace(HARVARD, seed=1, duration=30.0)
        path = tmp_path / "trace.jsonl"
        save_packet_trace_jsonl(trace, path)
        loaded = load_packet_trace_jsonl(path)
        assert len(loaded.outbound) == len(trace.outbound)
        assert len(loaded.inbound) == len(trace.inbound)
        for original, decoded in zip(trace.outbound[:20], loaded.outbound[:20]):
            assert decoded.src_ip == original.src_ip
            assert decoded.tcp.seq == original.tcp.seq
            assert decoded.src_mac == original.src_mac
