"""Byte-level pins on three deterministic CLI outputs.

Each hash was recorded once, before the alert/SLO evaluation path was
rewritten for speed, and must never be regenerated to make a change
pass: a different digest means the observe events stream, the chaos
alerts document or the soak report changed by at least one byte.

Every command runs as ``python -m repro`` in a fresh interpreter, as a
user runs it: detector names come from a process-wide counter, so the
same command run in-process after other tests names its agent
differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import EXIT_ALARM, EXIT_OK

SRC = str(Path(repro.__file__).resolve().parent.parent)

OBSERVE_EVENTS_SHA256 = (
    "d0f1a6b033c3254d617de826968568feb89b325bbd39532450a763f518d1572a"
)
CHAOS_ALERTS_SHA256 = (
    "089c722c11f73e1eb1cb320ecfe4049c1ea1fdd84850a2964d521652e8822e3e"
)
SOAK_REPORT_SHA256 = (
    "58e065e97a5dd9ff9ceb508c57d177299414a575c9d7275b6c715c287ba7c0c2"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def repro_cli(argv):
    """Run ``python -m repro *argv*`` in a fresh process; its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env,
        stdout=subprocess.DEVNULL, check=False,
    ).returncode


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


def test_soak_report_is_pinned(tmp_path):
    report = tmp_path / "soak.json"
    assert repro_cli([
        "soak", "--sim-days", "1", "--workers", "1", "--out", str(report),
    ]) == EXIT_OK
    assert _sha256(report) == SOAK_REPORT_SHA256
