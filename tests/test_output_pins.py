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

The trace-level pins (``COUNT_TRACE_SHA256``, ``PACKET_TRACE_SHA256``)
were recorded before the count-trace synthesis loops were rewritten for
speed.  A generator's output is a function of its seed and of the exact
order of its ``random()`` draws, so these digests hold the draw order
itself; they run in-process, since trace generation keeps no
process-wide state.

The telemetry-store pins (``TSDB_DOCUMENT_SHA256``,
``LIVE_ALERTS_SHA256``) were recorded before the store's series moved
from a list of ``(t, v)`` tuples to two columns and the live alert pass
was trimmed.  They cover the registry snapshot series and retention
compaction of every series, which the CLI pins above do not reach.

``TSDB_DOCUMENT_SHA256`` was re-recorded once, on purpose, when each
fact got one series: the registry snapshot stopped copying
``syndog_statistic``, ``syndog_x`` and ``syndog_alarm`` (the trajectory
writes them), a count-driven run stopped registering the
``sniffer_packets_total``, ``sniffer_packets_counted_total`` and
``exchange_periods_total`` counters it never moves, and the detector
gauges took the ``agent`` label.  The new digest was computed before
that change, from the old code's document with exactly two edits: its
8 series of those six families removed, and ``["agent", "pinned"]``
added to the ``syndog_k_bar`` series' labels.  The old document hashed
to ``83548b5efefb17699b366a6b61282127bb7689c3e0c58406c38165c1b26130cc``;
``LIVE_ALERTS_SHA256`` did not move.

The capture pins (``PCAP_SHA256``) were recorded before the
instrumentation bundle's disabled components moved from no-op twins to
``None``.  They hold the bytes ``repro generate --format pcap`` writes
for each site, which the JSONL packet-trace pin does not reach: the
record headers, timestamps and frame encoding.
"""

import hashlib
import json

import pytest

from repro.attack.flooder import FloodSource
from repro.cli import EXIT_ALARM, EXIT_OK, main
from repro.core.syndog import SynDog
from repro.obs.alerts import builtin_rules
from repro.obs.runtime import enabled_instrumentation
from repro.trace.mixer import AttackWindow, mix_flood_into_counts
from repro.trace.io import save_packet_trace_jsonl
from repro.trace.profiles import SITE_PROFILES
from repro.trace.synthetic import generate_count_trace, generate_packet_trace

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

#: sha256 of ``generate_count_trace(...).counts`` as compact JSON, keyed
#: by (site, seed, period, duration); None is the profile's Table 1
#: length.  100.1 s is not a multiple of 0.3 s and 1234.5 s is not a
#: multiple of 20 s.
COUNT_TRACE_SHA256 = {
    ("lbl", 1, 20.0, None): "f3dde120c994541dc8f10cc647ff89983fc5a5f65f2a3243ee7b5e6c523b2086",
    ("lbl", 1, 0.3, 100.1): "fe9f94e1606ab228ced95a29319decba074cb95f61642870851dd1b03f78b72b",
    ("lbl", 7, 20.0, None): "702d4ea646efd1d9486ffab3e6727145da7c18e6c16be37c4c91edbcab3aa348",
    ("lbl", 7, 0.3, 100.1): "f459b8aab8e583a631037fc3006ce347ee68041ef49470622c3b5cfed3f2adbe",
    ("harvard", 1, 20.0, None): "a2f9767758e328efc79b72557256d599b73a1cc0308c5f24303c3c5b9a595c3a",
    ("harvard", 1, 0.3, 100.1): "79f6e85295fff6c203211a20347e9518d1bd245d0ef67d28e087a25be5aad14a",
    ("harvard", 7, 20.0, None): "dbfc71ed6327bbcb2803644d1adf8eb93a4008d269d8f794139ce8e660071e11",
    ("harvard", 7, 0.3, 100.1): "939529da4e58b4d53ab6edc4363e5ebc035e27a84321f1fb9d06729282a0d12b",
    ("unc", 1, 20.0, None): "cb3918fcb9ed8e27f5d84fe3d8f6c422d970b7e707f0f9d88098a591eb572fc7",
    ("unc", 1, 0.3, 100.1): "0364d3e408c32ea0c0c0d446a41639f66104f17b3d26f4a3b479c0b3148256b6",
    ("unc", 7, 20.0, None): "2e672fa19bd1c771f433535b6ae5971cb37877b6b5297a0eec2d2fa6d0ff6d19",
    ("unc", 7, 0.3, 100.1): "3512b50dd4690b86315843026143c0b7b64c85bf1b59badd0bacdc919686ce55",
    ("auckland", 1, 20.0, None): "22b33211ee4582d3b9ce2afeecdb59204488237da5185ca7b5800f394ee647c8",
    ("auckland", 1, 0.3, 100.1): "6e02d02c404c26d9f46a4634db90e784385655455e24964b2111abed156a84cf",
    ("auckland", 7, 20.0, None): "10fd9e322b81664110ecf9a3ed2180e1cd2afa75db17c353a2e6e21ecb5dc14d",
    ("auckland", 7, 0.3, 100.1): "00c80ed1f3d35c98a5188314f516fffe7a71fff289d2f015ecaca37c569bc8a9",
    ("auckland", 3, 20.0, 1234.5): "fd75799c0c235c8184550bec5baec132ef3ab88e907eea15a1a26692a7956cc3",
}
#: sha256 of the JSONL form of ``generate_packet_trace(UNC, seed=1,
#: duration=120.0)``: its arrival instants come from ``counts``.
PACKET_TRACE_SHA256 = (
    "902559fbd33bb22ce9eab60d0ea4d69f1714a1333f308417479c46b265ea0b14"
)
#: sha256 of the ``.out.pcap`` and ``.in.pcap`` that ``repro generate
#: --format pcap --seed 1 --duration 120`` writes, keyed by site.
PCAP_SHA256 = {
    "lbl": (
        "7fd9df328abead3c2e25ea6fb8bd96ae60b8e07cfc7d0a9b6b391776cdf0e445",
        "389407d9ec0129eae96711d20b0578ca39b112607f1bdbaad1e96db398f68708",
    ),
    "harvard": (
        "12c9df441b791d7de0cfd48bba08f1492bd147d1151663778a194ff0d079dde9",
        "88d93f9eb4bf00a8d3b860c1678809bae16ff6a87b4938626051009c6cfd432b",
    ),
    "unc": (
        "f490933a9ea35683b7074b500de40afc12eef2d5172b90d827304b94509b6d88",
        "743c49b4014174c70f170b8b7598bb80d681762ece6378827882b3a5200f30c4",
    ),
    "auckland": (
        "a57652831c9885e9a88965a2351c5c60edc0cfabc54fe17ee3f4a530fec5b930",
        "646f2aedd65e4093ce72512d0f10a8e978de5c114890fec357df54cf1bee9769",
    ),
}

#: sha256 of the live TSDB's ``to_dict()`` (registry series included)
#: and of the live alerts document, as sorted compact JSON, after
#: :func:`test_live_tsdb_and_alerts_documents_are_pinned`'s run.
TSDB_DOCUMENT_SHA256 = (
    "6f237ce123cf616606bef5147f2626031007de197fdabfa3f4753b5ad5b5ec32"
)
LIVE_ALERTS_SHA256 = (
    "e38ba5ee899ae972b15c7fec04ea791c34844a9a9c3855e166cecb3818d9e063"
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


@pytest.mark.parametrize(
    "site, seed, period, duration", sorted(COUNT_TRACE_SHA256, key=str)
)
def test_count_trace_is_pinned(site, seed, period, duration):
    trace = generate_count_trace(
        SITE_PROFILES[site], seed, period=period, duration=duration
    )
    text = json.dumps(trace.counts, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        COUNT_TRACE_SHA256[site, seed, period, duration]
    )


def test_packet_trace_is_pinned(tmp_path):
    out = tmp_path / "unc.jsonl"
    save_packet_trace_jsonl(
        generate_packet_trace(SITE_PROFILES["unc"], 1, duration=120.0), out
    )
    assert _sha256(out) == PACKET_TRACE_SHA256


@pytest.mark.parametrize("site", sorted(PCAP_SHA256))
def test_generated_pcap_pair_is_pinned(tmp_path, site):
    prefix = tmp_path / site
    assert main([
        "generate", "--site", site, "--seed", "1", "--duration", "120",
        "--format", "pcap", "--out", str(prefix),
    ]) == EXIT_OK
    assert (
        _sha256(tmp_path / f"{site}.out.pcap"),
        _sha256(tmp_path / f"{site}.in.pcap"),
    ) == PCAP_SHA256[site]


def _json_sha256(document):
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_live_tsdb_and_alerts_documents_are_pinned():
    background = generate_count_trace(
        SITE_PROFILES["auckland"], 7, duration=7200.0
    )
    mixed = mix_flood_into_counts(
        background, FloodSource(pattern=5.0), AttackWindow(3600.0, 3600.0)
    )
    obs = enabled_instrumentation(
        tsdb_retention=64, alert_rules=builtin_rules()
    )
    dog = SynDog(obs=obs, name="pinned")
    assert dog.observe_counts(mixed.counts).alarmed
    obs.alerts.close()
    tsdb = obs.tsdb.to_dict()
    assert {series["source"] for series in tsdb["series"]} == {
        "feed", "registry",
    }
    assert all(series["compactions"] >= 1 for series in tsdb["series"])
    assert _json_sha256(tsdb) == TSDB_DOCUMENT_SHA256
    alerts = obs.alerts.to_dict()
    assert [entry["to"] for entry in alerts["transitions"]] == [
        "pending", "firing", "resolved",
    ]
    assert _json_sha256(alerts) == LIVE_ALERTS_SHA256
