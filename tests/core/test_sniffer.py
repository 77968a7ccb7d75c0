"""Tests for the interface sniffers and the period-exchange machinery."""

import pytest

from repro.core.sniffer import CountExchange, InboundSniffer, OutboundSniffer
from repro.packet.packet import make_ack, make_rst, make_syn, make_syn_ack


class TestSniffers:
    def test_outbound_counts_only_syns(self):
        sniffer = OutboundSniffer()
        packets = [
            make_syn(0.0, "1.1.1.1", "2.2.2.2"),
            make_syn_ack(0.1, "2.2.2.2", "1.1.1.1"),
            make_ack(0.2, "1.1.1.1", "2.2.2.2"),
            make_rst(0.3, "1.1.1.1", "2.2.2.2"),
            make_syn(0.4, "1.1.1.1", "2.2.2.2"),
        ]
        counted = [sniffer.observe(packet) for packet in packets]
        assert counted == [True, False, False, False, True]
        assert sniffer.count == 2

    def test_inbound_counts_only_synacks(self):
        sniffer = InboundSniffer()
        sniffer.observe(make_syn(0.0, "1.1.1.1", "2.2.2.2"))
        sniffer.observe(make_syn_ack(0.1, "2.2.2.2", "1.1.1.1"))
        assert sniffer.count == 1

    def test_drain_resets_period_counter_only(self):
        sniffer = OutboundSniffer()
        sniffer.observe(make_syn(0.0, "1.1.1.1", "2.2.2.2"))
        assert sniffer.drain() == 1
        assert sniffer.count == 0
        assert sniffer.drain() == 0


class TestCountExchange:
    def test_period_boundary_closes_report(self):
        exchange = CountExchange(observation_period=20.0)
        assert exchange.observe_outbound(make_syn(5.0, "1.1.1.1", "2.2.2.2")) == []
        assert exchange.observe_inbound(make_syn_ack(6.0, "2.2.2.2", "1.1.1.1")) == []
        reports = exchange.observe_outbound(make_syn(21.0, "1.1.1.1", "2.2.2.2"))
        assert len(reports) == 1
        report = reports[0]
        assert report.period_index == 0
        assert report.syn_count == 1
        assert report.synack_count == 1
        assert (report.start_time, report.end_time) == (0.0, 20.0)

    def test_boundary_packet_counts_in_next_period(self):
        exchange = CountExchange(observation_period=20.0)
        exchange.observe_outbound(make_syn(20.0, "1.1.1.1", "2.2.2.2"))
        reports = exchange.flush()
        # The t=20.0 packet belongs to period 1; period 0 is empty.
        assert reports[-1].period_index == 1
        assert reports[-1].syn_count == 1

    def test_idle_periods_emit_empty_reports(self):
        exchange = CountExchange(observation_period=20.0)
        exchange.observe_outbound(make_syn(1.0, "1.1.1.1", "2.2.2.2"))
        reports = exchange.observe_outbound(make_syn(75.0, "1.1.1.1", "2.2.2.2"))
        assert [r.period_index for r in reports] == [0, 1, 2]
        assert [r.syn_count for r in reports] == [1, 0, 0]

    def test_flush_with_end_time(self):
        exchange = CountExchange(observation_period=20.0)
        exchange.observe_outbound(make_syn(1.0, "1.1.1.1", "2.2.2.2"))
        reports = exchange.flush(end_time=60.0)
        assert [r.period_index for r in reports] == [0, 1, 2, 3]

    def test_custom_start_time(self):
        exchange = CountExchange(observation_period=10.0, start_time=100.0)
        reports = exchange.observe_outbound(make_syn(115.0, "1.1.1.1", "2.2.2.2"))
        assert len(reports) == 1
        assert (reports[0].start_time, reports[0].end_time) == (100.0, 110.0)

    def test_clock_is_origin_plus_index_times_period(self):
        exchange = CountExchange(observation_period=0.1, start_time=15.0)
        assert exchange.start_of(3) == 15.0 + 3 * 0.1
        reports = exchange.observe_outbound(make_syn(15.35, "1.1.1.1", "2.2.2.2"))
        assert [r.period_index for r in reports] == [0, 1, 2]
        assert [r.start_time for r in reports] == [exchange.start_of(k) for k in range(3)]
        assert [r.end_time for r in reports] == [exchange.start_of(k) for k in range(1, 4)]
        assert exchange.state_dict() == {"origin": 15.0, "period_index": 3}

    def test_load_state_moves_the_next_boundary(self):
        exchange = CountExchange(observation_period=20.0)
        exchange.load_state({"origin": 5.0, "period_index": 4})
        assert exchange.observe_outbound(make_syn(104.0, "1.1.1.1", "2.2.2.2")) == []
        reports = exchange.observe_outbound(make_syn(105.0, "1.1.1.1", "2.2.2.2"))
        assert [(r.period_index, r.start_time, r.syn_count) for r in reports] == [
            (4, 85.0, 1)
        ]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            CountExchange(observation_period=0.0)

    def test_statelessness_constant_memory(self):
        # The entire exchange state is two integers regardless of volume
        # (the paper's immunity argument); verify counters are the only
        # accumulation by pushing many packets and draining.
        exchange = CountExchange(observation_period=1000.0)
        for index in range(10_000):
            exchange.observe_outbound(
                make_syn(index * 0.01, "1.1.1.1", "2.2.2.2")
            )
        assert exchange.outbound.count == 10_000
        reports = exchange.flush()
        assert reports[-1].syn_count == 10_000
        assert exchange.outbound.count == 0
