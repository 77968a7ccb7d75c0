"""Tests for site profiles and synthetic generation: Table 1 durations,
calibration anchors, packet/count agreement, determinism."""

import random

import pytest

from repro.core import SynDog
from repro.trace.profiles import AUCKLAND, HARVARD, LBL, SITE_PROFILES, UNC, get_profile
from repro.trace.stats import summarize_counts
from repro.trace.synthetic import (
    AddressPlan,
    generate_count_trace,
    generate_packet_trace,
)


class TestProfiles:
    def test_table1_durations(self):
        assert LBL.duration == 3600.0          # one hour
        assert HARVARD.duration == 1800.0      # half hour
        assert UNC.duration == 1800.0          # half hour
        assert AUCKLAND.duration == 10800.0    # three hours

    def test_table1_traffic_types(self):
        assert LBL.bidirectional and HARVARD.bidirectional
        assert not UNC.bidirectional and not AUCKLAND.bidirectional

    def test_lookup(self):
        assert get_profile("unc") is UNC
        assert get_profile("Auckland") is AUCKLAND
        with pytest.raises(KeyError):
            get_profile("mit")

    def test_all_profiles_registered(self):
        assert set(SITE_PROFILES) == {"lbl", "harvard", "unc", "auckland"}

    def test_expected_k_bar_close_to_target(self):
        for profile in (UNC, AUCKLAND):
            assert profile.expected_k_bar() == pytest.approx(
                profile.k_bar_target, rel=0.05
            )

    def test_arrival_factory_returns_fresh_instances(self):
        assert UNC.make_arrivals() is not UNC.make_arrivals()


class TestCountGeneration:
    def test_determinism(self):
        a = generate_count_trace(UNC, seed=5, duration=400.0)
        b = generate_count_trace(UNC, seed=5, duration=400.0)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        a = generate_count_trace(UNC, seed=5, duration=400.0)
        b = generate_count_trace(UNC, seed=6, duration=400.0)
        assert a.counts != b.counts

    def test_duration_override(self):
        trace = generate_count_trace(AUCKLAND, seed=0, duration=200.0)
        assert trace.num_periods == 10

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            generate_count_trace(UNC, seed=0, duration=-5.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_names_the_value(self, duration):
        with pytest.raises(ValueError, match=str(duration)):
            generate_count_trace(UNC, seed=0, duration=duration)

    @pytest.mark.parametrize("period", [0.0, -20.0, float("nan")])
    def test_non_positive_period_names_the_value(self, period):
        with pytest.raises(ValueError, match=f"period must be positive: {period}"):
            generate_count_trace(UNC, seed=0, period=period, duration=60.0)

    def test_unc_calibration(self, unc_counts):
        stats = summarize_counts(unc_counts)
        # K_bar within 10% of the calibration target (1922/period).
        assert stats.mean_synack == pytest.approx(UNC.k_bar_target, rel=0.10)
        # Strong positive SYN<->SYN/ACK correlation (Section 4.1).
        assert stats.syn_synack_correlation > 0.6
        # Normalized mean c well below the drift a = 0.35.
        assert 0.0 < stats.mean_normalized_difference < 0.1

    def test_auckland_calibration(self, auckland_counts):
        stats = summarize_counts(auckland_counts)
        assert stats.mean_synack == pytest.approx(AUCKLAND.k_bar_target, rel=0.10)
        assert stats.syn_synack_correlation > 0.8
        assert 0.0 < stats.mean_normalized_difference < 0.1

    def test_implied_detection_floors_match_paper(self, unc_counts, auckland_counts):
        # Eq. 8 on the measured K_bar must land near the paper's quoted
        # floors (37 and 1.75 SYN/s) — within the calibration band.
        from repro.core import DEFAULT_PARAMETERS

        unc_floor = DEFAULT_PARAMETERS.min_detectable_rate(
            summarize_counts(unc_counts).mean_synack
        )
        auckland_floor = DEFAULT_PARAMETERS.min_detectable_rate(
            summarize_counts(auckland_counts).mean_synack
        )
        assert 30.0 < unc_floor < 40.0
        assert 1.3 < auckland_floor < 1.9

    def test_syn_exceeds_synack_on_average(self, harvard_counts):
        # Retransmissions + drops make SYNs >= SYN/ACKs in expectation.
        stats = summarize_counts(harvard_counts)
        assert stats.mean_syn >= stats.mean_synack


class TestPacketGeneration:
    def test_streams_time_sorted(self):
        trace = generate_packet_trace(HARVARD, seed=1, duration=120.0)
        for stream in (trace.outbound, trace.inbound):
            times = [p.timestamp for p in stream]
            assert times == sorted(times)

    def test_outbound_all_syn_inbound_all_synack(self):
        trace = generate_packet_trace(HARVARD, seed=1, duration=120.0)
        assert all(p.is_syn for p in trace.outbound)
        assert all(p.is_syn_ack for p in trace.inbound)

    def test_clients_inside_stub_network(self):
        rng = random.Random(2)
        plan = AddressPlan(rng)
        trace = generate_packet_trace(
            HARVARD, seed=2, duration=60.0, address_plan=plan
        )
        for packet in trace.outbound:
            assert packet.src_ip in plan.stub_network
        for packet in trace.inbound:
            assert packet.dst_ip in plan.stub_network
            assert packet.src_ip not in plan.stub_network

    def test_synack_acknowledges_client_isn(self):
        trace = generate_packet_trace(HARVARD, seed=3, duration=60.0)
        # Build the SYN table keyed by (client, port) and verify acks.
        syns = {}
        for packet in trace.outbound:
            segment = packet.tcp
            syns[(int(packet.src_ip), segment.src_port)] = segment.seq
        checked = 0
        for packet in trace.inbound:
            segment = packet.tcp
            key = (int(packet.dst_ip), segment.dst_port)
            if key in syns:
                assert segment.ack == (syns[key] + 1) & 0xFFFFFFFF
                checked += 1
        assert checked > 0

    def test_packet_counts_agree_with_count_generator(self):
        # The two resolutions share models, so mean per-period volumes
        # must agree statistically.
        duration = 600.0
        packet_trace = generate_packet_trace(AUCKLAND, seed=4, duration=duration)
        packet_counts = packet_trace.to_counts(period=20.0)
        count_trace = generate_count_trace(AUCKLAND, seed=4, duration=duration)
        mean_packet = summarize_counts(packet_counts).mean_synack
        mean_count = summarize_counts(count_trace).mean_synack
        assert mean_packet == pytest.approx(mean_count, rel=0.30)

    def test_detector_quiet_on_packet_trace(self):
        trace = generate_packet_trace(AUCKLAND, seed=5, duration=1200.0)
        result = SynDog().observe_streams(
            trace.outbound, trace.inbound, end_time=1200.0
        )
        assert not result.alarmed


class TestAddressPlan:
    def test_unique_client_addresses(self):
        plan = AddressPlan(random.Random(1), num_clients=100)
        addresses = [ip for ip, _ in plan.clients]
        assert len(set(addresses)) == 100

    def test_servers_outside_stub(self):
        plan = AddressPlan(random.Random(2))
        assert all(server not in plan.stub_network for server in plan.servers)

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressPlan(random.Random(3), num_clients=0)
