"""Federation supervisor tests: isolated member failures, restart from
checkpoint, and quorum-aware incident reporting."""

import random

import pytest

from repro.packet import IPv4Network
from repro.router import Federation, FederationFeedError, LeafRouter
from repro.trace import AUCKLAND, generate_packet_trace
from repro.trace.synthetic import AddressPlan

NETWORKS = {
    "eng": IPv4Network.parse("10.1.0.0/16"),
    "dorms": IPv4Network.parse("10.2.0.0/16"),
}


def member_traffic(stub, seed, duration=600.0):
    rng = random.Random(seed)
    plan = AddressPlan(rng, stub_network=stub)
    return generate_packet_trace(
        AUCKLAND, seed=seed, duration=duration, address_plan=plan
    )


def crashing_stream(packets, crash_after):
    """A packet stream whose source dies mid-replay."""
    def generate():
        for index, packet in enumerate(packets):
            if index == crash_after:
                raise RuntimeError("sniffer segfault")
            yield packet
    return generate()


def enrolled_federation(**kwargs):
    federation = Federation(**kwargs)
    for name, stub in NETWORKS.items():
        federation.add_network(name, stub)
    return federation


class TestFeedIsolation:
    def test_one_crash_does_not_starve_peers(self):
        federation = enrolled_federation()
        eng = member_traffic(NETWORKS["eng"], seed=1)
        dorms = member_traffic(NETWORKS["dorms"], seed=2)
        with pytest.raises(FederationFeedError) as excinfo:
            federation.feed_all({
                "eng": (crashing_stream(eng.outbound, 50), eng.inbound),
                "dorms": (dorms.outbound, dorms.inbound),
            })
        error = excinfo.value
        # The healthy member was fed in full despite the earlier crash
        # ("eng" sorts first, so its failure happened before "dorms" ran).
        assert set(error.errors) == {"eng"}
        assert isinstance(error.errors["eng"], RuntimeError)
        assert error.processed["dorms"] == dorms.num_packets
        assert error.processed["eng"] == 0
        assert "eng" in str(error)
        # Supervisor state reflects the outcome.
        assert federation.members_down == ("eng",)
        assert federation.quorum == 0.5

    def test_feed_all_returns_counts_when_healthy(self):
        federation = enrolled_federation()
        eng = member_traffic(NETWORKS["eng"], seed=1)
        dorms = member_traffic(NETWORKS["dorms"], seed=2)
        processed = federation.feed_all({
            "eng": (eng.outbound, eng.inbound),
            "dorms": (dorms.outbound, dorms.inbound),
        })
        assert processed == {
            "eng": eng.num_packets, "dorms": dorms.num_packets,
        }
        assert federation.members_down == ()
        assert federation.quorum == 1.0

    def test_feed_all_auto_restarts_without_raising(self):
        federation = enrolled_federation(auto_restart=True)
        eng = member_traffic(NETWORKS["eng"], seed=1)
        dorms = member_traffic(NETWORKS["dorms"], seed=2)
        processed = federation.feed_all({
            "eng": (crashing_stream(eng.outbound, 50), eng.inbound),
            "dorms": (dorms.outbound, dorms.inbound),
        })
        assert processed == {"eng": 0, "dorms": dorms.num_packets}
        assert federation.members_down == ()
        assert federation.restarts == {"eng": 1}


class TestLazyReplay:
    def test_a_dying_stream_has_forwarded_what_it_delivered(self):
        eng = member_traffic(NETWORKS["eng"], seed=1)
        router = LeafRouter(NETWORKS["eng"], name="router-eng")
        with pytest.raises(RuntimeError):
            router.replay(crashing_stream(eng.outbound, 50), eng.inbound)
        assert router.outbound.packets_forwarded == 50
        assert router.inbound.packets_forwarded > 0


class TestRestartFromCheckpoint:
    def test_feed_all_crash_restarts_from_its_checkpoint(self):
        federation = enrolled_federation()
        eng = member_traffic(NETWORKS["eng"], seed=3)
        federation.feed_all({"eng": (eng.outbound, eng.inbound)})
        _router, agent = federation.member("eng")
        checkpoint = agent.detector.checkpoint()

        more = member_traffic(NETWORKS["eng"], seed=4)
        with pytest.raises(FederationFeedError):
            federation.feed_all({
                "eng": (crashing_stream(more.outbound, 10), more.inbound),
            })
        assert federation.members_down == ("eng",)
        _router, agent = federation.restart_member("eng")
        assert federation.members_down == ()
        assert agent.detector.checkpoint() == checkpoint

    def test_restart_resumes_detector_state(self):
        federation = enrolled_federation()
        trace = member_traffic(NETWORKS["eng"], seed=3)
        federation.feed("eng", trace.outbound, trace.inbound)
        _router, agent = federation.member("eng")
        statistic_before = agent.detector.statistic
        k_before = agent.detector.k_bar
        next_index = agent.detector.checkpoint()["next_period_index"]
        assert next_index > 0

        more = member_traffic(NETWORKS["eng"], seed=4)
        with pytest.raises(RuntimeError):
            federation.feed(
                "eng", crashing_stream(more.outbound, 10), more.inbound
            )
        assert federation.members_down == ("eng",)

        router, agent = federation.restart_member("eng")
        assert federation.members_down == ()
        assert federation.restarts == {"eng": 1}
        # Detection state survived the bounce.
        assert agent.detector.statistic == statistic_before
        assert agent.detector.k_bar == k_before
        assert agent.detector.checkpoint()["next_period_index"] == next_index
        # The rebuilt router keeps its identity and stub network.
        assert router.name == "router-eng"
        assert router.stub_network == NETWORKS["eng"]

    def test_auto_restart_policy(self):
        federation = enrolled_federation(auto_restart=True)
        trace = member_traffic(NETWORKS["eng"], seed=5)
        federation.feed("eng", trace.outbound, trace.inbound)
        more = member_traffic(NETWORKS["eng"], seed=6)
        processed = federation.feed(
            "eng", crashing_stream(more.outbound, 10), more.inbound
        )
        assert processed == 0  # the crashed replay's packets are gone
        assert federation.members_down == ()
        assert federation.restarts == {"eng": 1}
        assert federation.quorum == 1.0

    def test_restart_without_checkpoint_starts_fresh(self):
        federation = enrolled_federation()
        trace = member_traffic(NETWORKS["dorms"], seed=7)
        with pytest.raises(RuntimeError):
            federation.feed(
                "dorms", crashing_stream(trace.outbound, 5), trace.inbound
            )
        _router, agent = federation.restart_member("dorms")
        assert agent.detector.statistic == 0.0
        assert len(agent.detector.records) == 0


class TestQuorumIncident:
    def test_incident_reports_members_down(self):
        federation = enrolled_federation()
        trace = member_traffic(NETWORKS["eng"], seed=8)
        with pytest.raises(RuntimeError):
            federation.feed(
                "eng", crashing_stream(trace.outbound, 5), trace.inbound
            )
        incident = federation.incident()
        assert incident.members_down == ("eng",)
        assert incident.quorum == 0.5
        assert incident.degraded

    def test_healthy_incident_not_degraded(self):
        federation = enrolled_federation()
        incident = federation.incident()
        assert incident.quorum == 1.0
        assert not incident.degraded

    def test_status_includes_supervision_columns(self):
        federation = enrolled_federation()
        trace = member_traffic(NETWORKS["eng"], seed=9)
        with pytest.raises(RuntimeError):
            federation.feed(
                "eng", crashing_stream(trace.outbound, 5), trace.inbound
            )
        status = federation.status()
        assert status["eng"]["down"] is True
        assert status["dorms"]["down"] is False
        federation.restart_member("eng")
        assert federation.status()["eng"]["restarts"] == 1

    def test_finish_skips_down_members(self):
        federation = enrolled_federation()
        eng = member_traffic(NETWORKS["eng"], seed=10)
        dorms = member_traffic(NETWORKS["dorms"], seed=11)
        with pytest.raises(RuntimeError):
            federation.feed(
                "eng", crashing_stream(eng.outbound, 5), eng.inbound
            )
        federation.feed("dorms", dorms.outbound, dorms.inbound)
        federation.finish(end_time=600.0)  # must not touch the dead member
        _router, dorms_agent = federation.member("dorms")
        assert len(dorms_agent.detector.records) > 0
