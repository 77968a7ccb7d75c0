"""Federation tests: enrollment, fan-out, alarm bus, merged incidents."""

import random

import pytest

from repro.attack import FloodSource
from repro.packet import IPv4Network, MACAddress
from repro.router import Federation
from repro.trace import AUCKLAND, AttackWindow, generate_packet_trace, mix_flood_into_packets
from repro.trace.synthetic import AddressPlan

NETWORKS = {
    "eng": IPv4Network.parse("10.1.0.0/16"),
    "dorms": IPv4Network.parse("10.2.0.0/16"),
    "library": IPv4Network.parse("10.3.0.0/16"),
}


def member_traffic(stub, seed, flooded=False, mac=None):
    rng = random.Random(seed)
    plan = AddressPlan(rng, stub_network=stub)
    trace = generate_packet_trace(
        AUCKLAND, seed=seed, duration=1200.0, address_plan=plan
    )
    if flooded:
        flood = FloodSource(pattern=10.0, mac=mac)
        trace = mix_flood_into_packets(
            trace, flood, AttackWindow(240.0, 600.0), rng
        )
    return trace


class TestFederation:
    def test_enrollment(self):
        federation = Federation()
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        assert federation.network_names == sorted(NETWORKS)
        with pytest.raises(ValueError):
            federation.add_network("eng", NETWORKS["eng"])
        with pytest.raises(KeyError):
            federation.member("unknown")

    def test_only_flooded_member_alarms(self):
        federation = Federation()
        flooder_mac = MACAddress.parse("02:bd:00:00:00:99")
        for name, stub in NETWORKS.items():
            router, _agent = federation.add_network(name, stub)
            if name == "dorms":
                router.inventory.register(flooder_mac, name="dorm-pc-666")
        alarms_seen = []
        federation.on_alarm = alarms_seen.append

        for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
            trace = member_traffic(
                stub, seed=40 + index,
                flooded=(name == "dorms"), mac=flooder_mac,
            )
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)

        assert federation.any_alarm
        assert [a.network_name for a in federation.alarms] == ["dorms"]
        assert alarms_seen and alarms_seen[0].network_name == "dorms"

        incident = federation.incident()
        assert incident.networks_alarming == ["dorms"]
        assert incident.hosts_localized == 1
        network, suspect = incident.suspects[0]
        assert network == "dorms"
        assert suspect.name == "dorm-pc-666"

    def test_quiet_fleet_no_incident(self):
        federation = Federation()
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        for index, (name, stub) in enumerate(sorted(NETWORKS.items())):
            trace = member_traffic(stub, seed=50 + index)
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)
        assert not federation.any_alarm
        assert federation.incident().suspects == ()

    def test_multiple_members_alarm_independently(self):
        federation = Federation()
        mac_a = MACAddress.parse("02:bd:00:00:00:aa")
        mac_b = MACAddress.parse("02:bd:00:00:00:bb")
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        traffic = {
            "eng": member_traffic(NETWORKS["eng"], 60, flooded=True, mac=mac_a),
            "dorms": member_traffic(NETWORKS["dorms"], 61, flooded=True, mac=mac_b),
            "library": member_traffic(NETWORKS["library"], 62),
        }
        for name, trace in traffic.items():
            federation.feed(name, trace.outbound, trace.inbound)
        federation.finish(end_time=1200.0)
        assert sorted(a.network_name for a in federation.alarms) == [
            "dorms", "eng",
        ]
        incident = federation.incident()
        suspect_macs = {host.mac for _network, host in incident.suspects}
        assert {mac_a, mac_b} <= suspect_macs


class TestFleetRollup:
    def build_and_feed(self, obs=None):
        from repro.obs.runtime import enabled_instrumentation

        federation = Federation(
            obs=obs or enabled_instrumentation(), fleet_top_k=4
        )
        for name, stub in NETWORKS.items():
            federation.add_network(name, stub)
        flood_mac = MACAddress.parse("02:bd:00:00:00:77")
        traffic = {
            name: member_traffic(
                stub, seed=70 + index,
                flooded=(name == "dorms"), mac=flood_mac,
            )
            for index, (name, stub) in enumerate(sorted(NETWORKS.items()))
        }
        federation.feed_all({
            name: (trace.outbound, trace.inbound)
            for name, trace in traffic.items()
        })
        return federation

    def test_rollup_reflects_member_detector_state(self):
        federation = self.build_and_feed()
        federation.finish(end_time=1200.0)
        rollup = federation.rollup()
        assert rollup.counts["total"] == len(NETWORKS)
        assert rollup.counts["alarming"] >= 1
        assert rollup.counts["down"] == 0
        assert rollup.quorum == 1.0
        assert rollup.watermark is not None
        # Agents are named as their detectors (and events) name them.
        top = {e["agent"] for e in rollup.top["cusum"].top()}
        assert "router-dorms" in top

    def test_feed_all_emits_fleet_series_and_event(self):
        from repro.obs.runtime import enabled_instrumentation

        obs = enabled_instrumentation()
        federation = self.build_and_feed(obs=obs)
        assert federation.last_rollup is not None
        (total,) = obs.tsdb.series("fleet_agents_total")
        assert total.samples[-1][1] == float(len(NETWORKS))
        (quorum,) = obs.tsdb.series("fleet_quorum")
        assert quorum.samples[-1][1] == 1.0
        assert obs.tsdb.series("fleet_cusum_p99")
        sink = obs.memory_events()
        fleet_events = [
            e for e in sink.events if e.get("event") == "fleet_rollup"
        ]
        assert fleet_events
        assert fleet_events[-1]["agents"] == len(NETWORKS)

    def test_down_member_degrades_quorum_in_rollup(self):
        federation = self.build_and_feed()
        federation._note_crash("library", RuntimeError("boom"))
        rollup = federation.rollup()
        assert rollup.counts["down"] == 1
        assert rollup.quorum == pytest.approx(2.0 / 3.0)
