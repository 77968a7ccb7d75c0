"""The long-horizon soak harness: epochs, campaign, alert continuity."""

import json

import pytest

from repro.core.parameters import DEFAULT_PARAMETERS
from repro.core.syndog import SynDog
from repro.experiments.soak import (
    SoakEpochTask,
    run_soak_campaign,
    run_soak_epoch,
    soak_alerts_document,
)
from repro.obs.alerts import AlertRule
from repro.obs.runtime import enabled_instrumentation


def make_task(epoch_index=0, attack=False, fault=False, periods=96):
    return SoakEpochTask(
        epoch_index=epoch_index,
        site="auckland",
        seed=42,
        periods_per_epoch=periods,
        parameters=DEFAULT_PARAMETERS,
        staleness_cap=3,
        attack=attack,
        fault=fault,
        rate=5.0,
        attack_start_period=16,
        attack_duration_periods=15,
        latency_target_periods=30,
        grace_periods=45,
        checkpoint_period=periods // 2,
    )


class TestSoakEpoch:
    def test_same_task_is_deterministic(self):
        first = run_soak_epoch(make_task(attack=True))
        second = run_soak_epoch(make_task(attack=True))
        # Spans carry wall-clock seconds (stripped from the canonical
        # report, not from the raw payload); everything else must match.
        first.pop("spans")
        second.pop("spans")
        assert first == second

    def test_restore_continues_bit_identically(self):
        payload = run_soak_epoch(make_task())
        assert payload["continuity_ok"] is True

    def test_quiet_epoch_raises_no_alarm(self):
        payload = run_soak_epoch(make_task())
        assert payload["alarm_periods"] == 0
        assert payload["false_alarms"] == 0
        assert payload["detected"] is None

    def test_attack_epoch_is_detected_within_target(self):
        payload = run_soak_epoch(make_task(attack=True))
        assert payload["detected"] is True
        assert payload["latency_periods"] is not None
        assert payload["latency_periods"] <= 30

    def test_fault_epoch_degrades_but_stays_continuous(self):
        payload = run_soak_epoch(make_task(fault=True))
        assert payload["degraded_periods"] > 0
        assert payload["continuity_ok"] is True

    def test_spans_cover_the_epoch_loop(self):
        obs = enabled_instrumentation(memory_events=True)
        payload = run_soak_epoch(make_task(), obs=obs)
        assert payload["spans"]["soak.checkpoint"]["count"] == 1
        assert payload["spans"]["soak.restore"]["count"] == 1
        assert payload["spans"]["soak.detect"]["count"] == 2
        for stats in payload["spans"].values():
            assert set(stats) == {"count", "total_seconds"}
            assert stats["total_seconds"] >= 0.0


class TestSoakCampaign:
    @pytest.fixture(scope="class")
    def reports(self):
        documents = {}
        for workers in (1, 2):
            obs = enabled_instrumentation(
                memory_events=True, tsdb_retention=2048
            )
            report = run_soak_campaign(
                sim_days=1, periods_per_epoch=288, obs=obs,
                workers=workers,
            )
            documents[workers] = (report, json.dumps(
                report.to_dict(), indent=2, sort_keys=True
            ))
        return documents

    def test_byte_identical_across_worker_counts(self, reports):
        assert reports[1][1] == reports[2][1]

    def test_continuity_and_health(self, reports):
        report = reports[1][0]
        assert report.continuity_ok
        assert report.healthy
        assert report.restores == report.epochs
        assert report.missed_epochs == ()

    def test_all_builtin_slos_carry_verdicts(self, reports):
        document = reports[1][0].slo
        names = [entry["name"] for entry in document["slos"]]
        assert names == ["detection_latency", "false_alarm_budget",
                         "availability", "event_loss"]
        for entry in document["slos"]:
            assert entry["verdict"] in ("ok", "no_data")
            assert entry["windows"] or entry["verdict"] == "no_data"

    def test_burn_timeline_has_one_entry_per_epoch(self, reports):
        report = reports[1][0]
        assert len(report.burn_timeline) == report.epochs

    def test_ledger_stays_flat(self, reports):
        report = reports[1][0]
        assert report.max_ledger_growth is not None
        assert report.max_ledger_growth <= 0.05

    def test_report_json_carries_no_wall_clock(self, reports):
        rendered = reports[1][1]
        assert "span_seconds" not in rendered
        assert "total_seconds" not in rendered
        assert "wall_seconds" not in rendered

    def test_alerts_document_is_embedded_and_closed(self, reports):
        alerts = reports[1][0].alerts
        assert alerts["closed"] is True
        names = {rule["name"] for rule in alerts["rules"]}
        assert any(name.startswith("slo_") for name in names)

    def test_epoch_length_must_divide_a_day(self):
        with pytest.raises(ValueError):
            run_soak_campaign(sim_days=1, periods_per_epoch=100)

    def test_bundle_without_a_store_is_refused(self):
        with pytest.raises(ValueError, match="telemetry store"):
            run_soak_campaign(
                sim_days=1, obs=enabled_instrumentation(tsdb=False)
            )


class TestSoakAlertsDocument:
    def test_replay_includes_slo_rules(self):
        obs = enabled_instrumentation(memory_events=True)
        obs.tsdb.append("syndog_cusum", {"agent": "a"}, 20.0, 0.0)
        document = soak_alerts_document(obs, times=[20.0])
        names = {rule["name"] for rule in document["rules"]}
        assert any(name.startswith("slo_") for name in names)
        assert document["evaluations"] == 1


class TestAlertLifecycleAcrossRestore:
    def test_rule_fires_and_resolves_across_the_boundary(self):
        # The alert manager lives in the obs bundle, not the detector:
        # a checkpoint/restore of the detector must leave rule
        # lifecycle state continuous — one firing, one resolution, no
        # duplicate transitions.
        rule = AlertRule(
            "alarm_up", "last_over_time(syndog_alarm_active[2m]) > 0",
            for_periods=2,
        )
        obs = enabled_instrumentation(
            memory_events=True, alert_rules=[rule]
        )
        dog = SynDog(obs=obs, name="a0")
        clock = [0.0]

        def feed(detector, syn, synack, periods):
            for _ in range(periods):
                detector.observe_period(syn, synack,
                                        start_time=clock[0])
                clock[0] += DEFAULT_PARAMETERS.observation_period
            return detector

        feed(dog, 30, 30, 25)            # calibrate, quiet
        feed(dog, 100, 30, 4)            # short flood: alarm + rule fire
        manager = obs.alerts
        assert "alarm_up" in manager.firing()
        restored = SynDog.restore(dog.checkpoint(), obs=obs, name="a0")
        # Still firing immediately after the restore boundary.
        assert "alarm_up" in manager.firing()
        feed(restored, 30, 30, 40)       # flood over: alarm clears
        state = manager.to_dict()["states"]["alarm_up"]
        assert state["fired_count"] == 1
        assert state["resolved_count"] == 1
        assert state["state"] == "inactive"
        kinds = [transition["to"] for transition in manager.transitions
                 if transition["rule"] == "alarm_up"]
        assert kinds.count("firing") == 1
        assert kinds.count("resolved") == 1
