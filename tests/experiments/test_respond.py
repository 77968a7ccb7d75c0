"""Closed-loop respond campaign: recovery verdict, determinism across
workers, offline timeline replay, and the CLI surface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.defense.response import Playbook, timeline_from_events
from repro.experiments.respond import (
    default_playbook,
    run_respond_campaign,
    timeline_document,
)
from repro.obs import enabled_instrumentation
from repro.obs.events import read_jsonl

FAST = dict(
    seed=3,
    rate=150.0,
    client_rate=10.0,
    duration=150.0,
    attack_start=40.0,
    attack_duration=60.0,
    period=5.0,
    backlog_capacity=128,
    alert_cut=40.0,
)


def report_bytes(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


class TestCampaign:
    def test_detects_mitigates_recovers(self):
        report = run_respond_campaign(workers=1, **FAST)
        doc = report.to_dict()
        assert doc["recovery"]["passed"]
        assert doc["recovery"]["mitigation_time"] is not None
        outcomes = {entry["outcome"] for entry in doc["timeline"]}
        assert "applied" in outcomes
        assert "rolled_back" in outcomes  # alert resolved in-run
        assert doc["mitigated"]["response"]["aborted"] == 0
        # Mitigation lands within one period of detection.
        first_alarm = doc["mitigated"]["detection"]["first_alarm_time"]
        assert doc["recovery"]["mitigation_time"] <= first_alarm + FAST["period"]

    def test_mitigated_beats_unmitigated_during_attack(self):
        report = run_respond_campaign(workers=1, **FAST)
        doc = report.to_dict()
        attacked = doc["unmitigated"]["phase_rates"]["attack"]
        mitigated = doc["mitigated"]["phase_rates"]["attack"]
        assert mitigated is not None
        assert attacked is None or mitigated >= attacked

    def test_flaky_actuator_retries_then_applies(self):
        report = run_respond_campaign(
            workers=1, actuator_failures=1, **FAST
        )
        doc = report.to_dict()
        outcomes = [entry["outcome"] for entry in doc["timeline"]]
        assert "retry" in outcomes
        assert "applied" in outcomes
        assert doc["recovery"]["passed"]

    @pytest.mark.parametrize("period", [0.0, -5.0, float("nan")])
    def test_bad_period_is_refused_before_anything_runs(self, period):
        # Unchecked, a zero or NaN period schedules occupancy samples
        # forever.
        with pytest.raises(ValueError, match="observation"):
            run_respond_campaign(workers=1, **{**FAST, "period": period})

    def test_byte_identical_across_workers(self):
        serial = run_respond_campaign(workers=1, **FAST)
        sharded = run_respond_campaign(workers=2, **FAST)
        assert report_bytes(serial) == report_bytes(sharded)

    def test_timeline_replays_from_events_alone(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        obs = enabled_instrumentation(events_path=str(events_path))
        report = run_respond_campaign(workers=1, obs=obs, **FAST)
        obs.finalize(None)
        replayed = timeline_from_events(read_jsonl(str(events_path)))
        assert replayed == report.mitigated["timeline"]
        assert (
            timeline_document(replayed)
            == timeline_document(report.mitigated["timeline"])
        )

    def test_example_playbook_parses_and_runs(self):
        path = (
            Path(__file__).resolve().parent.parent.parent
            / "examples" / "respond_playbook.yaml"
        )
        playbook = Playbook.from_file(str(path))
        assert playbook.name == "example-block-and-shield"
        ttls = [
            spec.ttl_periods
            for rule in playbook.rules
            for spec in rule.actions
        ]
        assert all(ttl is not None for ttl in ttls)  # every action expires
        report = run_respond_campaign(workers=1, playbook=playbook, **FAST)
        assert report.to_dict()["recovery"]["passed"]

    def test_collateral_cap_comes_from_playbook(self):
        report = run_respond_campaign(workers=1, **FAST)
        cap = min(
            spec["max_collateral_fraction"]
            for rule in default_playbook()["rules"]
            for spec in rule["actions"]
            if spec.get("max_collateral_fraction") is not None
        )
        assert report.collateral_cap == cap
        assert report.mitigated["response"]["peak_collateral"] <= cap


class TestCli:
    def run_cli(self, *argv):
        return main(["respond", *argv])

    def fast_args(self, tmp_path, *extra):
        return [
            "--seed", "3", "--rate", "150", "--client-rate", "10",
            "--duration", "150", "--attack-start", "40",
            "--attack-duration", "60", "--period", "5",
            "--backlog", "128", "--alert-cut", "40", "--workers", "1",
            *extra,
        ]

    def test_cli_writes_report_and_replayable_timeline(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        timeline = tmp_path / "timeline.json"
        events = tmp_path / "events.jsonl"
        code = self.run_cli(*self.fast_args(
            tmp_path,
            "--out", str(out),
            "--timeline-out", str(timeline),
            "--events-out", str(events),
        ))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["recovery"]["passed"]

        replayed = tmp_path / "replayed.json"
        code = main([
            "respond", "--replay", str(events),
            "--timeline-out", str(replayed),
        ])
        assert code == 0
        assert replayed.read_bytes() == timeline.read_bytes()

    def test_cli_rejects_bad_playbook(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\n", encoding="utf-8")  # no rules
        code = self.run_cli("--playbook", str(bad))
        assert code == 64

    def test_cli_rejects_missing_replay_file(self, tmp_path, capsys):
        code = main(["respond", "--replay", str(tmp_path / "missing.jsonl")])
        assert code == 64
