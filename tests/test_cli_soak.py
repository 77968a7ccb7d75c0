"""The ``repro soak`` command and the strict offline-events guards."""

import json

import pytest

from repro.cli import EXIT_ALARM, EXIT_OK, EXIT_USAGE, main


@pytest.fixture(scope="module")
def soak_runs(tmp_path_factory):
    """One simulated day at two worker counts, via the real CLI."""
    root = tmp_path_factory.mktemp("soak")
    outputs = {}
    for workers in (1, 2):
        out = root / f"soak-w{workers}.json"
        events = root / f"soak-w{workers}.jsonl"
        code = main([
            "soak", "--sim-days", "1", "--workers", str(workers),
            "--out", str(out), "--events-out", str(events),
        ])
        assert code == EXIT_OK
        outputs[workers] = (out, events)
    return outputs


class TestSoakCommand:
    def test_report_is_canonical_json(self, soak_runs):
        out, _ = soak_runs[1]
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["continuity"]["epochs"] == 15
        assert document["continuity"]["ok"] is True
        assert document["slo"]["verdict"] in ("ok", "no_data")
        assert document["ledger"]["flatness"]["max_growth"] is not None
        assert document["healthy"] is True

    def test_byte_identical_across_worker_counts(self, soak_runs):
        assert soak_runs[1][0].read_bytes() == soak_runs[2][0].read_bytes()

    def test_stdout_renders_the_verdict(self, soak_runs, capsys, tmp_path):
        code = main([
            "soak", "--sim-days", "1", "--workers", "2",
            "--out", str(tmp_path / "soak.json"),
        ])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "continuous operation healthy" in captured
        assert "slo verdicts" in captured
        assert "ledger" in captured

    def test_soak_events_feed_the_report_command(self, soak_runs, capsys):
        _, events = soak_runs[1]
        main(["report", str(events)])
        captured = capsys.readouterr().out
        assert "soak (continuous operation)" in captured
        assert "restores 15" in captured


class TestSoakUsage:
    @pytest.mark.parametrize("flags,named", [
        (["--sim-days", "0"], "--sim-days"),
        (["--periods-per-epoch", "0"], "--periods-per-epoch"),
        (["--periods-per-epoch", "7"], "must divide a simulated day"),
        (["--rate", "-3"], "rate"),
        (["--rate", "nan"], "rate"),
    ], ids=["sim-days-zero", "epoch-zero", "epoch-not-dividing-a-day",
            "rate-negative", "rate-nan"])
    def test_bad_option_is_one_line_and_usage_exit(
        self, flags, named, tmp_path, capsys
    ):
        out = tmp_path / "soak.json"
        assert main(["soak", *flags, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("soak: ")
        assert named in err and flags[1] in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestStrictEventsGuards:
    def test_report_on_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["report", str(empty)])
        assert code == EXIT_ALARM
        err = capsys.readouterr().err
        assert err.startswith("report: empty events file")
        assert err.count("\n") == 1

    def test_report_on_truncated_file_exits_two(self, tmp_path, capsys):
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text('{"event": "per', encoding="utf-8")
        code = main(["report", str(truncated)])
        assert code == EXIT_ALARM
        err = capsys.readouterr().err
        assert "truncated or corrupt events file" in err
        assert err.count("\n") == 1

    def test_query_on_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["query", "syndog_cusum", "--events", str(empty)])
        assert code == EXIT_ALARM
        assert "empty events file" in capsys.readouterr().err

    def test_query_on_truncated_file_exits_two(self, tmp_path, capsys):
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text('{"event": "per', encoding="utf-8")
        code = main(["query", "syndog_cusum", "--events", str(truncated)])
        assert code == EXIT_ALARM
        assert "truncated or corrupt" in capsys.readouterr().err

    def test_missing_file_is_still_a_usage_error(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_USAGE
        code = main([
            "query", "syndog_cusum",
            "--events", str(tmp_path / "nope.jsonl"),
        ])
        assert code == EXIT_USAGE

    def test_valid_log_still_analyzes(self, tmp_path, capsys):
        events = tmp_path / "ok.jsonl"
        events.write_text(
            '{"event": "period", "seq": 1, "agent": "a", '
            '"period_index": 0, "end_time": 20.0, "statistic": 0.0, '
            '"alarm": false}\n',
            encoding="utf-8",
        )
        assert main(["report", str(events)]) == EXIT_OK
