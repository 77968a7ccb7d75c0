"""The differential serial-vs-parallel equivalence suite.

The same seeded mini-campaign and chaos run executed at ``workers=1``
and ``workers=4`` must produce **byte-identical** artifacts:

* the JSON report (``json.dumps(..., sort_keys=True)`` of the
  result-to-dict serialization),
* the exported metrics (Prometheus text, minus wall-clock families),
* the event stream (minus wall-clock fields),
* the flight-recorder alarm contexts.

The sweeps (detection runner, sensitivity grid) get the same
treatment.  Four workers on a shared queue maximize scheduling
nondeterminism, so any dependence on worker count or completion order
shows up here as a byte diff.
"""

import json

import pytest

from repro.attack.ddos import DDoSCampaign
from repro.experiments.campaign import simulate_campaign
from repro.experiments.chaos import chaos_alerts_document, run_chaos_campaign
from repro.experiments.export import campaign_result_to_dict, sensitivity_cells_to_dict
from repro.experiments.runner import run_detection_sweep
from repro.experiments.sensitivity import sweep_parameters
from repro.faults.schedule import get_schedule
from repro.obs.merge import (
    canonical_events, render_deterministic, tsdb_snapshot,
)
from repro.obs.runtime import enabled_instrumentation
from repro.packet.addresses import IPv4Address
from repro.trace.profiles import get_profile

WORKERS = 4


def fresh_obs():
    return enabled_instrumentation(memory_events=True)


def memory_events(obs):
    (sink,) = [
        s for s in obs.events.sinks() if type(s).__name__ == "MemorySink"
    ]
    return canonical_events(sink.events)


def observable_state(obs):
    """The full deterministic observability surface of a run."""
    return {
        "metrics": render_deterministic(obs.registry),
        "events": memory_events(obs),
        "contexts": list(obs.recorder.contexts),
        "tsdb": tsdb_snapshot(obs.tsdb),
    }


def run_campaign(workers):
    obs = fresh_obs()
    campaign = DDoSCampaign.evenly_distributed(
        IPv4Address.parse("198.51.100.80"), 14000.0, 400
    )
    result = simulate_campaign(
        campaign,
        get_profile("auckland"),
        base_seed=7,
        max_networks=4,
        obs=obs,
        workers=workers,
    )
    report = json.dumps(
        campaign_result_to_dict(result), indent=2, sort_keys=True
    )
    return report, observable_state(obs)


def run_chaos(workers):
    obs = fresh_obs()
    report = run_chaos_campaign(
        site="auckland",
        seed=42,
        schedule=get_schedule("lossy-crash"),
        rate=5.0,
        attack_start=240.0,
        attack_duration=360.0,
        duration=900.0,
        obs=obs,
        workers=workers,
    )
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return text, observable_state(obs)


class TestCampaignDifferential:
    def test_parallel_campaign_byte_identical(self):
        serial_report, serial_state = run_campaign(workers=1)
        parallel_report, parallel_state = run_campaign(workers=WORKERS)
        assert parallel_report == serial_report
        assert parallel_state["metrics"] == serial_state["metrics"]
        assert parallel_state["events"] == serial_state["events"]
        assert parallel_state["contexts"] == serial_state["contexts"]

    def test_serial_run_is_self_consistent(self):
        """Two serial runs agree with themselves — the baseline the
        differential is meaningful against."""
        first_report, first_state = run_campaign(workers=1)
        second_report, second_state = run_campaign(workers=1)
        assert first_report == second_report
        assert first_state == second_state


class TestChaosDifferential:
    def test_parallel_chaos_byte_identical(self):
        serial_report, serial_state = run_chaos(workers=1)
        parallel_report, parallel_state = run_chaos(workers=WORKERS)
        assert parallel_report == serial_report
        assert parallel_state["metrics"] == serial_state["metrics"]
        assert parallel_state["events"] == serial_state["events"]
        assert parallel_state["contexts"] == serial_state["contexts"]
        assert parallel_state["tsdb"] == serial_state["tsdb"]


def run_alerting_chaos(workers):
    """A chaos scenario tuned so the builtin rules both fire and
    resolve: the flood drives y_n over the 0.8·N watermark and back
    down before the trace ends, and a tiny memory bound forces event
    drops mid-run."""
    obs = enabled_instrumentation(max_memory_events=24)
    report = run_chaos_campaign(
        site="auckland",
        seed=42,
        schedule=get_schedule("lossy-crash"),
        rate=3.0,
        attack_start=360.0,
        attack_duration=200.0,
        duration=1200.0,
        obs=obs,
        workers=workers,
    )
    doc = chaos_alerts_document(obs)
    return json.dumps(doc, indent=2, sort_keys=True), report


class TestAlertsDifferential:
    def test_chaos_alerts_document_byte_identical_with_fire_and_resolve(self):
        serial_doc, serial_report = run_alerting_chaos(workers=1)
        parallel_doc, parallel_report = run_alerting_chaos(workers=WORKERS)
        assert parallel_doc == serial_doc
        assert parallel_report.to_dict() == serial_report.to_dict()

        doc = json.loads(serial_doc)
        lifecycle = {}
        for transition in doc["transitions"]:
            lifecycle.setdefault(transition["rule"], []).append(
                transition["to"]
            )
        # The near-threshold watermark alert fires during the flood and
        # resolves once the 5m window slides past the decay.
        assert "firing" in lifecycle["cusum_near_threshold"]
        assert "resolved" in lifecycle["cusum_near_threshold"]
        # The bounded sink overflows mid-run and the drop-rate alert
        # fires; close() resolves it at the final watermark.
        assert "firing" in lifecycle["events_dropping"]
        assert "resolved" in lifecycle["events_dropping"]
        # The lossy-crash schedule produces degraded periods too.
        assert "firing" in lifecycle["degraded_periods"]
        # The replayed document is closed: nothing is left dangling.
        assert doc["closed"] is True
        assert doc["firing"] == []


class TestSweepDifferential:
    def test_detection_sweep_rows_identical(self):
        serial_obs, parallel_obs = fresh_obs(), fresh_obs()
        kwargs = dict(
            flood_rates=[40.0, 60.0], num_trials=3, base_seed=0
        )
        serial = run_detection_sweep(
            get_profile("unc"), obs=serial_obs, workers=1, **kwargs
        )
        parallel = run_detection_sweep(
            get_profile("unc"), obs=parallel_obs, workers=WORKERS, **kwargs
        )
        assert parallel == serial
        assert render_deterministic(parallel_obs.registry) == (
            render_deterministic(serial_obs.registry)
        )
        assert memory_events(parallel_obs) == memory_events(serial_obs)

    def test_sensitivity_cells_identical(self):
        kwargs = dict(
            drifts=[0.2, 0.35],
            thresholds=[0.6, 1.05],
            flood_rate=5.0,
            num_normal_traces=2,
            num_attack_trials=2,
            base_seed=3,
        )
        serial = sweep_parameters(
            get_profile("auckland"), workers=1, **kwargs
        )
        parallel = sweep_parameters(
            get_profile("auckland"), workers=WORKERS, **kwargs
        )
        assert json.dumps(
            sensitivity_cells_to_dict(parallel, site="auckland"),
            sort_keys=True,
        ) == json.dumps(
            sensitivity_cells_to_dict(serial, site="auckland"),
            sort_keys=True,
        )
