"""End-to-end instrumentation: the detection path with a live bundle.

These tests hold the wiring contract of the observability layer: every
instrumented component accepts ``obs=``, a shared registry accumulates
across components, and the default (no ``obs``) stays on the null
bundle — nothing registered, nothing emitted.
"""

from repro.core.syndog import SynDog
from repro.experiments.runner import DetectionTrialConfig, run_detection_trial
from repro.obs import (
    MemorySink,
    enabled_instrumentation,
    instrumented,
    parse_prometheus_text,
    render_prometheus,
)
from repro.packet.addresses import IPv4Network
from repro.packet.packet import make_syn, make_syn_ack
from repro.router.leafrouter import LeafRouter
from repro.trace.profiles import UNC

STUB = IPv4Network.parse("152.2.0.0/16")


def memory_sink(obs) -> MemorySink:
    [sink] = [s for s in obs.events._sinks if isinstance(s, MemorySink)]
    return sink


class TestSynDogCountLevel:
    def test_period_metrics_and_events(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs)
        for _ in range(5):
            dog.observe_period(100, 100)
        registry = obs.registry
        assert registry.get("syndog_periods_total").value == 5.0
        assert registry.get("syndog_syn_total").value == 500.0
        assert registry.get("syndog_synack_total").value == 500.0
        assert registry.get("syndog_alarm").labels(dog.name).value == 0.0
        assert registry.get("syndog_k_bar").labels(dog.name).value == dog.k_bar
        periods = memory_sink(obs).of_kind("period")
        assert len(periods) == 5
        # The acceptance contract: every period event carries the full
        # trajectory point.
        for i, event in enumerate(periods):
            assert event["period_index"] == i
            assert {"x", "statistic", "alarm", "syn", "synack",
                    "k_bar", "start_time", "end_time"} <= set(event)

    def test_alarm_transition_counted_and_emitted(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs)
        for _ in range(5):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)  # flood: X_n ≈ 49 >> N
        assert dog.alarm
        transitions = obs.registry.get("syndog_alarm_transitions_total")
        assert transitions.labels("raised").value == 1.0
        assert transitions.labels("cleared").value == 0.0
        assert obs.registry.get("syndog_alarm").labels(dog.name).value == 1.0
        sink = memory_sink(obs)
        [raised] = sink.of_kind("alarm_raised")
        assert raised["period_index"] == 5
        assert raised["statistic"] > 1.05
        # Staying in alarm is not a transition.
        dog.observe_period(5000, 100)
        assert transitions.labels("raised").value == 1.0
        assert len(sink.of_kind("alarm_raised")) == 1

    def test_uninstrumented_detector_registers_nothing(self):
        dog = SynDog()
        dog.observe_period(100, 100)
        assert dog._m_periods is None
        assert dog._events is None


class TestSynDogPacketLevel:
    def test_sniffer_direction_counters(self):
        obs = enabled_instrumentation(memory_events=False)
        dog = SynDog(obs=obs)
        for i in range(10):
            dog.observe_outbound(make_syn(float(i), "152.2.1.1", "8.8.8.8"))
            dog.observe_inbound(
                make_syn_ack(float(i) + 0.5, "8.8.8.8", "152.2.1.1")
            )
        dog.flush(end_time=19.5)
        seen = obs.registry.get("sniffer_packets_total")
        assert seen.labels("outbound").value == 10.0
        assert seen.labels("inbound").value == 10.0
        counted = obs.registry.get("sniffer_packets_counted_total")
        assert counted.labels("outbound").value == 10.0  # all SYNs
        assert counted.labels("inbound").value == 10.0   # all SYN/ACKs
        assert obs.registry.get("exchange_periods_total").value == 1.0
        assert obs.registry.get("syndog_syn_total").value == 10.0

    def test_classifier_metrics_flow_through_router(self):
        obs = enabled_instrumentation(memory_events=False)
        router = LeafRouter(stub_network=STUB, obs=obs)
        router.replay(
            outbound=[make_syn(0.0, "152.2.1.1", "8.8.8.8")],
            inbound=[make_syn_ack(0.5, "8.8.8.8", "152.2.1.1")],
        )
        registry = obs.registry
        outcomes = registry.get("router_packets_total")
        assert outcomes.labels("outbound", "forwarded").value == 1.0
        assert outcomes.labels("inbound", "forwarded").value == 1.0
        classes = registry.get("classifier_packets_total")
        assert classes.labels("syn").value == 1.0
        assert classes.labels("syn-ack").value == 1.0
        # Observer fan-out latency was timed per packet.
        assert registry.get("router_observer_seconds").labels(
            "outbound"
        ).count == 1

    def test_dropped_packets_counted_separately(self):
        obs = enabled_instrumentation(memory_events=False)
        router = LeafRouter(stub_network=STUB, obs=obs)
        router.ingress_filter.activate()
        assert not router.forward_outbound(
            make_syn(0.0, "10.9.9.9", "8.8.8.8")  # spoofed, filtered
        )
        outcomes = obs.registry.get("router_packets_total")
        assert outcomes.labels("outbound", "dropped").value == 1.0


class TestProcessDefaultWiring:
    def test_components_pick_up_scoped_instrumentation(self):
        obs = enabled_instrumentation()
        with instrumented(obs):
            dog = SynDog()  # no explicit obs: resolves the scoped one
        dog.observe_period(100, 100)
        assert obs.registry.get("syndog_periods_total").value == 1.0


class TestRunnerInstrumentation:
    def test_trial_metrics_and_event(self):
        obs = enabled_instrumentation()
        outcome = run_detection_trial(
            DetectionTrialConfig(
                profile=UNC, flood_rate=500.0, seed=3, attack_start=180.0
            ),
            obs=obs,
        )
        assert outcome.detected
        trials = obs.registry.get("trials_total")
        assert trials.labels("UNC", "true").value == 1.0
        assert obs.registry.get("trial_seconds").labels("UNC").count == 1
        [event] = memory_sink(obs).of_kind("trial")
        assert event["site"] == "UNC"
        assert event["detected"] is True
        assert event["wall_seconds"] > 0.0
        # The inner detector stays un-instrumented by design: no
        # per-period chatter from Monte-Carlo trials.
        assert memory_sink(obs).of_kind("period") == []


class TestEndToEndExport:
    def test_full_run_renders_parseable_prometheus(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs)
        for _ in range(3):
            dog.observe_period(100, 100)
        obs.finalize()
        text = render_prometheus(obs.registry)
        samples = parse_prometheus_text(text)
        names = {name for name, _, _ in samples}
        assert "syndog_periods_total" in names
        assert "syndog_statistic" in names
