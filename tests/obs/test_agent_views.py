"""One per-agent state, read four ways.

A :class:`~repro.router.Federation`, the flight recorder behind
``/healthz`` and ``/fleet``, and an event-log replay (``repro fleet
--events``) each fold the same per-period stream into an
:class:`~repro.obs.runtime.AgentSummary`, so on one run they agree: on
the agent's name, on how many times its alarm was raised, on its
period count across a restart, and — through the recorder's down set,
which the federation marks — on which members are down.
"""

import random
from types import SimpleNamespace

import pytest

from repro.attack import FloodSource
from repro.obs import enabled_instrumentation
from repro.obs.rollup import rollup_from_events
from repro.obs.runtime import AgentSummary, period_of
from repro.obs.server import ObsServer
from repro.packet import IPv4Network, MACAddress
from repro.router import Federation
from repro.trace import (
    AUCKLAND,
    AttackWindow,
    generate_packet_trace,
    mix_flood_into_packets,
)
from repro.trace.synthetic import AddressPlan

NETWORKS = {
    "eng": IPv4Network.parse("10.1.0.0/16"),
    "dorms": IPv4Network.parse("10.2.0.0/16"),
    "library": IPv4Network.parse("10.3.0.0/16"),
}
SLAVE = MACAddress.parse("02:bd:00:00:0e:01")
DURATION = 900.0
#: Where the dorms and library members crash.
CRASH_AT = 600.0
#: Two 60 s floods at 5 SYN/s, far enough apart for the CUSUM to fall
#: back below the threshold between them: two raises, no acknowledgement.
FLOODS = (100.0, 560.0)

#: The ``/healthz`` row keys every view reports.
ROW_KEYS = {
    "periods", "alarm", "alarms_seen", "degraded_periods", "statistic",
    "k_bar", "last_period_index",
}


def member_trace(name, seed, floods=()):
    """An Auckland packet trace for member *name*, built as
    ``examples/federation.py`` builds its members."""
    rng = random.Random(seed)
    trace = generate_packet_trace(
        AUCKLAND, seed=seed, duration=DURATION,
        address_plan=AddressPlan(rng, stub_network=NETWORKS[name]),
    )
    for start in floods:
        trace = mix_flood_into_packets(
            trace, FloodSource(pattern=5.0, mac=SLAVE),
            AttackWindow(start, 60.0), rng,
        )
    return trace


def window(trace, start, stop):
    def cut(packets):
        return [p for p in packets if start <= p.timestamp < stop]
    return cut(trace.outbound), cut(trace.inbound)


def dead_sniffer():
    raise RuntimeError("sniffer segfault")
    yield


def crash(federation, name):
    with pytest.raises(RuntimeError):
        federation.feed(name, dead_sniffer(), [])


@pytest.fixture(scope="module")
def run():
    """One Federation on one live bundle: ``eng`` raises twice without
    an acknowledgement, ``dorms`` crashes and restarts from its
    checkpoint, ``library`` crashes and stays down."""
    obs = enabled_instrumentation(memory_events=True)
    federation = Federation(obs=obs)
    for name, stub in NETWORKS.items():
        federation.add_network(name, stub)
    traces = {
        "eng": member_trace("eng", 70, FLOODS),
        "dorms": member_trace("dorms", 71),
        "library": member_trace("library", 72),
    }
    federation.feed("eng", *window(traces["eng"], 0.0, DURATION))
    for name in ("dorms", "library"):
        federation.feed(name, *window(traces[name], 0.0, CRASH_AT))
    checkpoint = federation.member("dorms")[1].detector.checkpoint()
    crash(federation, "dorms")
    crash(federation, "library")
    federation.restart_member("dorms")
    restarted = {
        "federation": federation.status()["dorms"],
        "recorder": obs.recorder.status()["router-dorms"],
    }
    federation.feed("dorms", *window(traces["dorms"], CRASH_AT, DURATION))
    federation.finish(end_time=DURATION)
    return SimpleNamespace(
        obs=obs, federation=federation, checkpoint=checkpoint,
        restarted=restarted,
    )


class TestOneRunFourViews:
    def test_the_scenario_holds(self, run):
        federation = run.federation
        assert federation.members_down == ("library",)
        eng = federation.member("eng")[1]
        # The response fired once; the alarm was raised twice.
        assert len(eng.alarm_events) == 1
        assert eng.detector.summary.alarms == 2
        assert not eng.detector.alarm

    def test_federation_rollup_equals_the_event_log_rollup(self, run):
        events = run.obs.memory_events().events
        assert run.federation.rollup().to_dict() == \
            rollup_from_events(events).to_dict()

    def test_fleet_document_equals_the_federation_rollup(self, run):
        fleet = ObsServer(run.obs).fleet_document()
        live = run.federation.rollup()
        assert live.counts["down"] == 1
        assert fleet == live.to_dict()

    def test_healthz_summary_counts_the_down_member(self, run):
        health = ObsServer(run.obs).health()
        counts = run.federation.rollup().counts
        assert health["summary"] == {
            "agents_total": 3, "ok": counts["ok"],
            "degraded": counts["degraded"], "alarming": counts["alarming"],
            "down": 1, "quorum": run.federation.quorum,
        }
        assert health["summary"]["quorum"] == pytest.approx(2 / 3)
        assert health["status"] != "ok"

    def test_a_restart_marks_the_member_up(self):
        obs = enabled_instrumentation(memory_events=True)
        federation = Federation(obs=obs)
        federation.add_network("dorms", NETWORKS["dorms"])
        trace = member_trace("dorms", 71)
        federation.feed("dorms", *window(trace, 0.0, CRASH_AT))
        crash(federation, "dorms")
        assert obs.recorder.down == {"router-dorms"}
        assert ObsServer(obs).health()["summary"]["quorum"] == 0.0
        federation.restart_member("dorms")
        assert obs.recorder.down == frozenset()
        assert ObsServer(obs).health()["summary"]["quorum"] == 1.0
        assert ObsServer(obs).fleet_document() == \
            federation.rollup().to_dict()

    def test_a_crashed_alarming_member_counts_only_as_down(self):
        obs = enabled_instrumentation(memory_events=True)
        federation = Federation(obs=obs)
        federation.add_network("eng", NETWORKS["eng"])
        trace = member_trace("eng", 70, FLOODS[:1])
        federation.feed("eng", *window(trace, 0.0, 170.0))
        crash(federation, "eng")
        # The tape still reads the alarm of the last period it saw.
        assert obs.recorder.status()["router-eng"]["alarm"] is True
        health = ObsServer(obs).health()
        assert health["summary"]["alarming"] == 0
        assert health["summary"]["down"] == 1
        assert health["alarms_active"] == 0
        assert health["status"] == "degraded"
        rollup = federation.rollup()
        assert ObsServer(obs).fleet_document() == rollup.to_dict()
        assert rollup.counts["alarming"] == 0
        assert rollup.counts["down"] == 1

    def test_federation_status_rows_equal_recorder_rows(self, run):
        recorder = run.obs.recorder.status()
        assert ObsServer(run.obs).health()["agents"] == recorder
        for name, row in run.federation.status().items():
            theirs = recorder[row["router"]]
            assert set(row) & set(theirs) == ROW_KEYS
            assert {key: row[key] for key in ROW_KEYS} == theirs, name
        assert recorder["router-eng"]["alarms_seen"] == 2

    def test_periods_continue_across_a_restart(self, run):
        periods = run.checkpoint["next_period_index"]
        assert periods > 0
        assert run.restarted["federation"]["periods"] == periods
        assert run.restarted["recorder"]["periods"] == periods
        assert {key: run.restarted["federation"][key] for key in ROW_KEYS} \
            == run.restarted["recorder"]


class TestAcknowledgement:
    def test_views_report_the_last_period_until_the_next_one(self):
        obs = enabled_instrumentation(memory_events=True)
        federation = Federation(obs=obs)
        federation.add_network("eng", NETWORKS["eng"])
        trace = member_trace("eng", 70, FLOODS[:1])
        federation.feed("eng", *window(trace, 0.0, 170.0))
        agent = federation.member("eng")[1]
        assert agent.detector.alarm
        agent.acknowledge_alarm()
        # The live CUSUM is re-armed, but no period has closed since:
        # every view still reads the last period, alarm and all.
        assert not agent.detector.alarm
        assert agent.detector.statistic == 0.0
        row = federation.status()["eng"]
        assert row["alarm"] is True
        assert row["statistic"] > 1.05
        assert {key: row[key] for key in ROW_KEYS} == \
            obs.recorder.status()["router-eng"]
        # The next periods fold the re-armed statistic in.
        federation.feed("eng", *window(trace, 170.0, DURATION))
        federation.finish(end_time=DURATION)
        row = federation.status()["eng"]
        assert row["alarm"] is False
        assert {key: row[key] for key in ROW_KEYS} == \
            obs.recorder.status()["router-eng"]
        assert federation.rollup().to_dict() == \
            rollup_from_events(obs.memory_events().events).to_dict()


def leg(seed, offset):
    """A 600 s Auckland packet trace for ``eng``, moved *offset* s on."""
    rng = random.Random(seed)
    trace = generate_packet_trace(
        AUCKLAND, seed=seed, duration=600.0,
        address_plan=AddressPlan(rng, stub_network=NETWORKS["eng"]),
    )
    return (
        [packet.at(packet.timestamp + offset) for packet in trace.outbound],
        [packet.at(packet.timestamp + offset) for packet in trace.inbound],
    )


def dying(packets):
    """The first half of *packets*, then the sniffer's crash."""
    yield from packets[: len(packets) // 2]
    yield from dead_sniffer()


class TestRestartReplay:
    def test_views_count_each_period_once_across_a_restart(self):
        # Three consecutive legs; the second one's outbound stream dies
        # halfway.  The member restarts from the checkpoint taken after
        # the first leg and closes again the periods it had closed
        # before the crash, so the log carries those indices twice.
        obs = enabled_instrumentation(memory_events=True)
        federation = Federation(obs=obs, auto_restart=True)
        federation.add_network("eng", NETWORKS["eng"])
        for seed, offset in ((80, 0.0), (81, 600.0), (82, 1200.0)):
            outbound, inbound = leg(seed, offset)
            if offset == 600.0:
                outbound = dying(outbound)
            federation.feed("eng", outbound, inbound)
        federation.finish()
        events = obs.memory_events().events
        periods = [event for event in events if event["event"] == "period"]
        indices = {event["period_index"] for event in periods}
        assert len(periods) > len(indices) == 90

        assert federation.status()["eng"]["periods"] == 90
        assert obs.recorder.status()["router-eng"]["periods"] == 90
        replayed = AgentSummary()
        for event in periods:
            replayed.fold(period_of(event))
        assert replayed.periods == 90
        live = federation.rollup().to_dict()
        assert ObsServer(obs).fleet_document() == live
        assert rollup_from_events(events).to_dict() == live
