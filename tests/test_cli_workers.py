"""Worker-count byte-identity of every sharded campaign, end to end.

Each row runs one ``repro`` command twice in a fresh interpreter, at
``--workers 1`` (every shard in this process) and ``--workers 2``
(shards in worker processes), each in its own directory, and requires
the same exit code and the same bytes in every file the run wrote.
Prometheus files are compared without their ``_seconds`` samples, the
only wall-clock figures they carry.  Sizes are the smoke sizes the
commands are documented with; a row's ``check`` adds the assertions
specific to its scenario.
"""

import json
import re

import pytest

from repro.cli import EXIT_ALARM, EXIT_DEGRADED, EXIT_OK

from ._cli import PLAYBOOK, run_repro


def artifacts(directory):
    """Every file a run wrote, by name; ``.prom`` without ``_seconds``."""
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".prom":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if b"_seconds" not in line
            )
        files[path.name] = data
    return files


def check_alerts_fire_and_resolve(runs):
    """The tuned chaos scenario fires AND resolves the builtin rules."""
    proc, directory = runs[1]
    document = json.loads((directory / "alerts.json").read_text())
    want = {"cusum_near_threshold", "events_dropping"}
    for state in ("firing", "resolved"):
        moved = {t["rule"] for t in document["transitions"] if t["to"] == state}
        assert want <= moved, state
    assert document["closed"] and document["firing"] == []
    assert "fired: " in proc.stdout


def check_respond_replay_and_metrics(runs):
    """The w1 events JSONL alone rebuilds the timeline byte for byte,
    and the mitigation shows in the exported metrics."""
    directory = runs[1][1]
    replay = run_repro([
        "respond", "--replay", "respond-events.jsonl",
        "--timeline-out", "timeline-replay.json",
    ], directory)
    assert replay.returncode == EXIT_OK
    assert (directory / "timeline-replay.json").read_bytes() == (
        directory / "timeline.json"
    ).read_bytes()
    metrics = (directory / "respond.prom").read_text()
    for pattern in (
        r'^response_actions_total\{.*outcome="applied"',
        r'^response_actions_total\{.*outcome="rolled_back"',
        r"^defense_cookie_validations_total\{",
    ):
        assert re.search(pattern, metrics, re.MULTILINE), pattern


CAMPAIGNS = [
    pytest.param(
        ["campaign", "--networks", "400", "--sample", "4", "--seed", "7",
         "--json", "campaign.json", "--metrics-out", "campaign.prom"],
        {EXIT_OK, EXIT_ALARM}, None, id="campaign",
    ),
    pytest.param(
        ["chaos", "--seed", "42", "--schedule", "lossy-crash",
         "--out", "chaos.json"],
        {EXIT_OK}, None, id="chaos",
    ),
    pytest.param(
        ["chaos", "--seed", "42", "--schedule", "lossy-crash",
         "--rate", "3.0", "--attack-start", "360",
         "--attack-duration", "200", "--duration", "1200",
         "--max-memory-events", "24", "--alerts-out", "alerts.json"],
        {EXIT_OK}, check_alerts_fire_and_resolve, id="chaos-alerts",
    ),
    pytest.param(
        ["profile", "--mode", "cost-model", "--json", "profile.json",
         "--flame-out", "profile.folded"],
        {EXIT_OK}, None, id="profile-cost-model",
    ),
    pytest.param(
        ["soak", "--sim-days", "2", "--out", "soak.json",
         "--metrics-out", "soak.prom"],
        {EXIT_OK, EXIT_DEGRADED}, None, id="soak",
    ),
    pytest.param(
        ["respond", "--seed", "7", "--playbook", PLAYBOOK,
         "--out", "respond.json", "--timeline-out", "timeline.json",
         "--events-out", "respond-events.jsonl",
         "--metrics-out", "respond.prom"],
        {EXIT_OK}, check_respond_replay_and_metrics, id="respond",
    ),
]


@pytest.mark.parametrize("argv, codes, check", CAMPAIGNS)
def test_workers_1_and_2_are_byte_identical(
    tmp_path, argv, codes, check
):
    runs = {}
    for workers in (1, 2):
        directory = tmp_path / f"w{workers}"
        directory.mkdir()
        runs[workers] = (
            run_repro([*argv, "--workers", str(workers)], directory),
            directory,
        )
    (w1, dir_1), (w2, dir_2) = runs[1], runs[2]
    assert w1.returncode in codes
    assert w1.returncode == w2.returncode
    assert artifacts(dir_1) == artifacts(dir_2)
    if check is not None:
        check(runs)
