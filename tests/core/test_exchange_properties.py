"""Property-based tests for the period exchange: conservation of
counts and correct period placement under arbitrary packet schedules,
checked against the clock's definition ``origin + k * t0``."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import SynDogParameters
from repro.core.sniffer import CountExchange
from repro.core.syndog import SynDog
from repro.packet.packet import make_ack, make_rst, make_syn, make_syn_ack


@st.composite
def packet_schedules(draw):
    """A mixed schedule of (timestamp, kind, direction): time-sorted or
    not, with repeated timestamps."""
    n = draw(st.integers(min_value=0, max_value=120))
    pool = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1, max_size=max(1, n),
        )
    )
    times = [
        pool[i]
        for i in draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=n, max_size=n,
            )
        )
    ]
    if draw(st.booleans()):
        times.sort()
    kinds = draw(
        st.lists(
            st.sampled_from(["syn", "synack", "ack", "rst"]),
            min_size=n, max_size=n,
        )
    )
    directions = draw(
        st.lists(st.booleans(), min_size=n, max_size=n)  # True = outbound
    )
    return list(zip(times, kinds, directions))


def reference_period(running_max, origin, period):
    """The clock's definition: the largest k >= 0 with
    ``origin + k * period <= running_max``."""
    k = max(0, math.floor((running_max - origin) / period))
    while k > 0 and origin + k * period > running_max:
        k -= 1
    while origin + (k + 1) * period <= running_max:
        k += 1
    return k


def build_packet(timestamp, kind):
    maker = {
        "syn": make_syn,
        "synack": make_syn_ack,
        "ack": make_ack,
        "rst": make_rst,
    }[kind]
    return maker(timestamp, "152.2.0.1", "8.8.8.8")


class TestExchangeProperties:
    @given(
        schedule=packet_schedules(),
        origin=st.sampled_from([0.0, 15.0, 100.0]),
        period=st.sampled_from([20.0, 10.0, 0.3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_are_conserved_and_placed(self, schedule, origin, period):
        exchange = CountExchange(observation_period=period, start_time=origin)
        reports = []
        for timestamp, kind, outbound in schedule:
            if outbound:
                reports.extend(exchange.observe_outbound(build_packet(timestamp, kind)))
            else:
                reports.extend(exchange.observe_inbound(build_packet(timestamp, kind)))
        reports.extend(exchange.flush(end_time=501.0))

        # Reference model: each packet counts in the period the running
        # max of timestamps so far falls in.
        expected_syn = {}
        expected_synack = {}
        running_max = -math.inf
        for timestamp, kind, outbound in schedule:
            running_max = max(running_max, timestamp)
            index = reference_period(running_max, origin, period)
            if outbound and kind == "syn":
                expected_syn[index] = expected_syn.get(index, 0) + 1
            if not outbound and kind == "synack":
                expected_synack[index] = expected_synack.get(index, 0) + 1

        # Conservation: totals match exactly.
        assert sum(r.syn_count for r in reports) == sum(expected_syn.values())
        assert sum(r.synack_count for r in reports) == sum(
            expected_synack.values()
        )
        # Placement: every period's counts match the reference bins.
        for report in reports:
            assert report.syn_count == expected_syn.get(report.period_index, 0)
            assert report.synack_count == expected_synack.get(
                report.period_index, 0
            )
        # Reports are contiguous, ordered, and on the clock.
        for position, report in enumerate(reports):
            assert report.period_index == position
            assert report.start_time == origin + position * period
            assert report.end_time == origin + (position + 1) * period
        assert exchange.period_index == len(reports)

    @given(schedule=packet_schedules())
    @settings(max_examples=50, deadline=None)
    def test_wrong_direction_packets_never_counted(self, schedule):
        exchange = CountExchange(observation_period=20.0)
        reports = []
        for timestamp, kind, _outbound in schedule:
            # Deliberately feed SYN/ACKs outbound and SYNs inbound.
            if kind == "synack":
                reports.extend(exchange.observe_outbound(build_packet(timestamp, kind)))
            elif kind == "syn":
                reports.extend(exchange.observe_inbound(build_packet(timestamp, kind)))
        reports.extend(exchange.flush())
        assert all(r.syn_count == 0 and r.synack_count == 0 for r in reports)


class TestClockDoesNotDrift:
    def test_packet_level_records_sit_on_the_clock(self):
        """t0 = 0.1 s over 10^5 periods: a running sum of 0.1 drifts off
        k * 0.1 within a few periods; the clock's product never does."""
        dog = SynDog(parameters=SynDogParameters(observation_period=0.1))
        for i in range(14_287):
            dog.observe_outbound(make_syn(i * 0.7, "152.2.0.1", "8.8.8.8"))
        dog.flush()
        records = dog.records
        assert len(records) >= 100_000
        for k, record in enumerate(records):
            assert record.period_index == k
            assert record.start_time == k * 0.1
        for record, following in zip(records, records[1:]):
            assert record.end_time == following.start_time
