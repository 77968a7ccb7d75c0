"""Byte-level pins on deterministic CLI outputs.

Each hash was recorded once, before a rewrite it guards, and must never
be regenerated to make a change pass: a different digest means the
artifact changed by at least one byte.  The observe events stream, the
chaos alerts document and the soak report were pinned before the
alert/SLO evaluation path was rewritten for speed; the campaign
artifacts (campaign, chaos, respond, sensitivity, cost-model profile)
before the serial ``--workers 1`` forks and the per-command CLI
plumbing were folded into one path.

The chaos alerts and soak pins were re-recorded once, on purpose, when
the always-empty ``rule_errors`` key left the alerts document; each of
those tests also proves the new bytes are the old document with only
that key removed, by putting it back and matching the old digest.

Every command runs as ``python -m repro`` in a fresh interpreter, as a
user runs it (see ``tests/_cli.py``).
"""

import hashlib
import json

from repro.cli import EXIT_ALARM, EXIT_OK

from ._cli import PLAYBOOK, run_repro

OBSERVE_EVENTS_SHA256 = (
    "d0f1a6b033c3254d617de826968568feb89b325bbd39532450a763f518d1572a"
)
CHAOS_ALERTS_SHA256 = (
    "987167ac11778162ae8e8df8ab741ec25577c07f90a2f22c8f7b01fbbeea565f"
)
SOAK_REPORT_SHA256 = (
    "e6c25cb753e15a3a6cf8f4f7259c1bad31c0e817cef74db87b478d8cebbd69c4"
)
#: The same two documents pinned while they still carried
#: ``"rule_errors": {}``.
CHAOS_ALERTS_WITH_RULE_ERRORS_SHA256 = (
    "089c722c11f73e1eb1cb320ecfe4049c1ea1fdd84850a2964d521652e8822e3e"
)
SOAK_REPORT_WITH_RULE_ERRORS_SHA256 = (
    "58e065e97a5dd9ff9ceb508c57d177299414a575c9d7275b6c715c287ba7c0c2"
)

CAMPAIGN_JSON_SHA256 = (
    "8edd9f1a264b92163c08ee278951d6702cd88a04a28729040be3a102bcecdc05"
)
CHAOS_REPORT_SHA256 = (
    "56240f795c952528cf8c979e4349ef8d664925ace1cf3c4c0dbcd1b0a65d10b3"
)
RESPOND_REPORT_SHA256 = (
    "fec7cace18afe2dd0dfe1a5ac45d378f2ebcb8f3e3f0a92dbdc4132efeffe6bc"
)
RESPOND_TIMELINE_SHA256 = (
    "cb89e5af295ade4307493afbe646fd922713832b28beea280851f48a995c7785"
)
SENSITIVITY_JSON_SHA256 = (
    "0279c49a260c4ea3afba1f42141bfc9be39fb0f0811dd7964d8ce784e0da210c"
)
PROFILE_JSON_SHA256 = (
    "4d825bd5c6bf6679333d5e6804100834037545089170fac9d9b7a783ac230e26"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_with_rule_errors(path, *keys):
    """Digest of the document at *path* with ``"rule_errors": {}`` put
    back into the alerts document at *keys*, re-serialized canonically
    (sorted keys, two-space indent, trailing newline)."""
    document = json.loads(path.read_text(encoding="utf-8"))
    alerts = document
    for key in keys:
        alerts = alerts[key]
    assert "rule_errors" not in alerts
    alerts["rule_errors"] = {}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def repro_cli(argv):
    """Run ``python -m repro *argv*`` in a fresh process; its exit code."""
    return run_repro(argv).returncode


def test_observe_alerts_events_stream_is_pinned(tmp_path):
    background = tmp_path / "bg.csv"
    mixed = tmp_path / "mixed.csv"
    events = tmp_path / "events.jsonl"
    assert repro_cli([
        "generate", "--site", "auckland", "--seed", "7",
        "--duration", "7200", "--out", str(background),
    ]) == EXIT_OK
    assert repro_cli([
        "attack", "--counts", str(background), "--rate", "5",
        "--start", "3600", "--out", str(mixed),
    ]) == EXIT_OK
    assert repro_cli([
        "observe", "--trace", str(mixed), "--alerts",
        "--events-out", str(events),
    ]) == EXIT_ALARM
    assert _sha256(events) == OBSERVE_EVENTS_SHA256


def test_chaos_alerts_document_is_pinned(tmp_path):
    alerts = tmp_path / "alerts.json"
    assert repro_cli([
        "chaos", "--seed", "42", "--schedule", "lossy-crash",
        "--rate", "3.0", "--attack-start", "360",
        "--attack-duration", "200", "--duration", "1200",
        "--max-memory-events", "24", "--workers", "1",
        "--alerts-out", str(alerts),
    ]) == EXIT_OK
    assert _sha256(alerts) == CHAOS_ALERTS_SHA256
    assert _sha256_with_rule_errors(alerts) == (
        CHAOS_ALERTS_WITH_RULE_ERRORS_SHA256
    )


def test_soak_report_is_pinned(tmp_path):
    report = tmp_path / "soak.json"
    assert repro_cli([
        "soak", "--sim-days", "1", "--workers", "1", "--out", str(report),
    ]) == EXIT_OK
    assert _sha256(report) == SOAK_REPORT_SHA256
    assert _sha256_with_rule_errors(report, "alerts") == (
        SOAK_REPORT_WITH_RULE_ERRORS_SHA256
    )


def test_campaign_json_is_pinned(tmp_path):
    out = tmp_path / "campaign.json"
    assert repro_cli([
        "campaign", "--networks", "400", "--sample", "4", "--seed", "7",
        "--workers", "1", "--json", str(out),
    ]) == EXIT_ALARM
    assert _sha256(out) == CAMPAIGN_JSON_SHA256


def test_chaos_report_is_pinned(tmp_path):
    out = tmp_path / "chaos.json"
    assert repro_cli([
        "chaos", "--seed", "42", "--schedule", "lossy-crash",
        "--workers", "1", "--out", str(out),
    ]) == EXIT_OK
    assert _sha256(out) == CHAOS_REPORT_SHA256


def test_respond_report_and_timeline_are_pinned(tmp_path):
    out = tmp_path / "respond.json"
    timeline = tmp_path / "timeline.json"
    assert repro_cli([
        "respond", "--seed", "7", "--workers", "1", "--playbook", PLAYBOOK,
        "--out", str(out), "--timeline-out", str(timeline),
    ]) == EXIT_OK
    assert _sha256(out) == RESPOND_REPORT_SHA256
    assert _sha256(timeline) == RESPOND_TIMELINE_SHA256


def test_sensitivity_json_is_pinned(tmp_path):
    out = tmp_path / "sensitivity.json"
    assert repro_cli([
        "sensitivity", "--workers", "1", "--json", str(out),
    ]) == EXIT_OK
    assert _sha256(out) == SENSITIVITY_JSON_SHA256


def test_cost_model_profile_json_is_pinned(tmp_path):
    out = tmp_path / "profile.json"
    assert repro_cli([
        "profile", "--mode", "cost-model", "--workers", "1",
        "--json", str(out),
    ]) == EXIT_OK
    assert _sha256(out) == PROFILE_JSON_SHA256
