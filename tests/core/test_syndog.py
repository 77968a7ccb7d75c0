"""Tests for the assembled SYN-dog agent (count- and packet-level)."""

import pytest

from repro.core.parameters import SynDogParameters
from repro.core.sniffer import CountExchange
from repro.core.syndog import SynDog
from repro.packet.packet import make_syn, make_syn_ack


class TestCountLevel:
    def test_balanced_traffic_never_alarms(self):
        dog = SynDog()
        for _ in range(200):
            record = dog.observe_period(1000, 1000)
        assert record.statistic == 0.0
        assert not dog.alarm

    def test_flood_alarms_in_design_time(self):
        # Background K = 100; a flood adding 0.72*K SYNs/period (just
        # above h = 0.7) grows y_n by ~0.37/period, crossing N = 1.05 at
        # the end of the third flooded period — the paper's 3*t0 design
        # detection time.
        dog = SynDog(initial_k=100.0)
        for _ in range(10):
            dog.observe_period(100, 100)
        flooded = [dog.observe_period(100 + 72, 100).alarm for _ in range(3)]
        assert flooded == [False, False, True]

    def test_detection_result_delay(self):
        dog = SynDog(initial_k=100.0)
        for _ in range(10):
            dog.observe_period(100, 100)
        for _ in range(3):
            dog.observe_period(172, 100)
        result = dog.result()
        assert result.alarmed
        # Attack started at t = 200s (period 10); alarm at end of period
        # 12 (t = 260): delay = 3 periods.
        assert result.detection_delay_periods(200.0) == pytest.approx(3.0)

    def test_no_alarm_result(self):
        dog = SynDog()
        result = dog.observe_counts([(100, 100)] * 20)
        assert not result.alarmed
        assert result.first_alarm_period is None
        assert result.detection_delay_periods(0.0) is None

    def test_records_expose_pipeline_internals(self):
        dog = SynDog(initial_k=100.0)
        record = dog.observe_period(150, 100)
        assert record.syn_count == 150
        assert record.x == pytest.approx(0.5)
        assert record.statistic == pytest.approx(0.15)
        assert record.k_bar > 0

    def test_min_detectable_rate_tracks_k(self):
        dog = SynDog(initial_k=100.0)
        dog.observe_period(100, 100)
        assert dog.min_detectable_rate() == pytest.approx(
            0.35 * dog.k_bar / 20.0
        )

    def test_custom_parameters(self):
        tuned = SynDogParameters(
            observation_period=10.0, drift=0.2, attack_increase=0.4, threshold=0.6
        )
        dog = SynDog(parameters=tuned, initial_k=100.0)
        # An increase of 0.42/period (net +0.22 after the drift) crosses
        # the 0.6 threshold at the end of the third period.
        alarms = [dog.observe_period(100 + 42, 100).alarm for _ in range(3)]
        assert alarms == [False, False, True]

    def test_statistics_series(self):
        dog = SynDog(initial_k=100.0)
        result = dog.observe_counts([(170, 100)] * 3)
        assert result.statistics == pytest.approx([0.35, 0.70, 1.05])
        assert result.max_statistic == pytest.approx(1.05)


class TestPacketLevel:
    def test_observe_streams_counts_directionally(self):
        dog = SynDog()
        outbound = [make_syn(t, "152.2.0.1", "8.8.8.8") for t in (1.0, 2.0, 25.0)]
        inbound = [make_syn_ack(t, "8.8.8.8", "152.2.0.1") for t in (1.1, 2.1)]
        result = dog.observe_streams(outbound, inbound, end_time=40.0)
        assert result.records[0].syn_count == 2
        assert result.records[0].synack_count == 2
        assert result.records[1].syn_count == 1

    def test_syn_on_inbound_interface_not_counted(self):
        # A SYN arriving on the *inbound* interface is Internet->Intranet
        # (a connection toward a local server) — not what the outbound
        # sniffer counts.
        dog = SynDog()
        result = dog.observe_streams(
            outbound=[],
            inbound=[make_syn(1.0, "8.8.8.8", "152.2.0.1")],
            end_time=20.0,
        )
        assert result.records[0].syn_count == 0
        assert result.records[0].synack_count == 0

    def test_packet_and_count_paths_agree(self):
        outbound = [make_syn(t * 0.5, "152.2.0.1", "8.8.8.8") for t in range(100)]
        inbound = [
            make_syn_ack(t * 0.5 + 0.1, "8.8.8.8", "152.2.0.1") for t in range(95)
        ]
        packet_dog = SynDog()
        packet_result = packet_dog.observe_streams(outbound, inbound, end_time=60.0)
        counts = [
            (record.syn_count, record.synack_count)
            for record in packet_result.records
        ]
        count_dog = SynDog()
        count_result = count_dog.observe_counts(counts)
        assert count_result.statistics == pytest.approx(packet_result.statistics)

    def test_flush_closes_trailing_period(self):
        dog = SynDog()
        dog.observe_outbound(make_syn(5.0, "152.2.0.1", "8.8.8.8"))
        assert len(dog.records) == 0
        dog.flush()
        assert len(dog.records) == 1
        assert dog.records[0].syn_count == 1


class TestPeriodClock:
    """Records are numbered on the exchange's clock, counted from its
    origin — what ``SynDogAgent(start_time=...)`` builds."""

    @staticmethod
    def _feed(dog, times):
        records = []
        for t in times:
            records.extend(dog.observe_outbound(make_syn(t, "152.2.0.1", "8.8.8.8")))
        return records

    def test_record_indices_equal_report_indices_off_zero_origin(self):
        times = [16.0, 36.0, 56.0, 76.0]
        records = self._feed(SynDog(start_time=15.0), times)
        exchange = CountExchange(observation_period=20.0, start_time=15.0)
        reports = []
        for t in times:
            reports.extend(exchange.observe_outbound(make_syn(t, "152.2.0.1", "8.8.8.8")))
        assert [r.period_index for r in records] == [0, 1, 2]
        assert [r.period_index for r in records] == [r.period_index for r in reports]
        assert [(r.start_time, r.end_time) for r in records] == [
            (15.0, 35.0), (35.0, 55.0), (55.0, 75.0)
        ]

    def test_restore_at_origin_15_continues_contiguously(self):
        dog = SynDog(start_time=15.0)
        first = self._feed(dog, [16.0, 36.0, 56.0])
        state = dog.checkpoint()
        assert state["next_period_index"] == 2
        assert state["exchange"] == {"origin": 15.0, "period_index": 2}
        restored = SynDog.restore(state)
        second = self._feed(restored, [60.0, 80.0, 100.0])
        second.extend(restored.flush())
        indices = [r.period_index for r in first + second]
        assert indices == list(range(len(indices)))
        assert [r.start_time for r in second] == [55.0, 75.0, 95.0]


class TestAlarmClearing:
    def test_clear_resets_statistic_but_keeps_k(self):
        dog = SynDog(initial_k=100.0)
        for _ in range(5):
            dog.observe_period(100, 100)
        for _ in range(4):
            dog.observe_period(100 + 80, 100)
        assert dog.alarm
        k_before = dog.k_bar
        periods_before = len(dog.records)
        dog.clear_alarm()
        assert not dog.alarm
        assert dog.statistic == 0.0
        assert dog.k_bar == k_before
        assert len(dog.records) == periods_before  # history kept

    def test_ongoing_flood_refires_after_clear(self):
        dog = SynDog(initial_k=100.0)
        for _ in range(5):
            dog.observe_period(100, 100)
        while not dog.alarm:
            dog.observe_period(100 + 80, 100)
        dog.clear_alarm()
        # The flood continues: the alarm must come back within the
        # design detection time (3 periods at h = 0.8 > 0.7).
        refired = [dog.observe_period(100 + 80, 100).alarm for _ in range(3)]
        assert refired[-1]

    def test_quiet_traffic_stays_quiet_after_clear(self):
        dog = SynDog(initial_k=100.0)
        while not dog.alarm:
            dog.observe_period(100 + 80, 100)
        dog.clear_alarm()
        for _ in range(50):
            record = dog.observe_period(100, 100)
        assert not record.alarm
