"""CLI tests — every subcommand exercised through ``repro.cli.main``;
malformed input also through ``python -m repro``, to see the exit code
and stderr a user sees."""

import json
from pathlib import Path

import pytest

from repro.cli import EXIT_ALARM, EXIT_OK, main
from repro.trace.io import load_count_trace

from ._cli import run_repro


@pytest.fixture
def background_csv(tmp_path):
    path = tmp_path / "bg.csv"
    code = main([
        "generate", "--site", "auckland", "--seed", "7",
        "--duration", "1800", "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_counts_file_valid(self, background_csv):
        trace = load_count_trace(background_csv)
        assert trace.num_periods == 90
        assert trace.metadata.site == "Auckland"

    def test_pcap_output(self, tmp_path, capsys):
        code = main([
            "generate", "--site", "lbl", "--seed", "1",
            "--duration", "120", "--format", "pcap",
            "--out", str(tmp_path / "lbl"),
        ])
        assert code == EXIT_OK
        from repro.pcap.reader import read_pcap

        outbound = read_pcap(tmp_path / "lbl.out.pcap")
        inbound = read_pcap(tmp_path / "lbl.in.pcap")
        assert outbound and inbound
        assert all(p.is_syn for p in outbound)


class TestAttackAndDetect:
    def test_clean_trace_no_alarm(self, background_csv, capsys):
        code = main(["detect", "--counts", str(background_csv), "--quiet"])
        assert code == EXIT_OK
        assert "no flooding source" in capsys.readouterr().out

    def test_attacked_trace_alarms(self, background_csv, tmp_path, capsys):
        mixed = tmp_path / "mixed.csv"
        code = main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        assert code == EXIT_OK
        code = main(["detect", "--counts", str(mixed), "--quiet"])
        assert code == EXIT_ALARM
        assert "ALARM" in capsys.readouterr().out

    def test_detect_pcap_pair(self, tmp_path, capsys):
        main([
            "generate", "--site", "harvard", "--seed", "2",
            "--duration", "300", "--format", "pcap",
            "--out", str(tmp_path / "h"),
        ])
        code = main([
            "detect",
            "--pcap-out", str(tmp_path / "h.out.pcap"),
            "--pcap-in", str(tmp_path / "h.in.pcap"),
            "--quiet",
        ])
        assert code == EXIT_OK

    def test_custom_threshold_changes_verdict(self, background_csv, tmp_path):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "1.2",
            "--start", "360", "--out", str(mixed),
        ])
        # 1.2 SYN/s is below the default floor but a hair-trigger
        # threshold catches it (at a false-alarm cost the operator
        # accepted explicitly).
        default = main(["detect", "--counts", str(mixed), "--quiet"])
        tuned = main([
            "detect", "--counts", str(mixed), "--quiet",
            "--drift", "0.1", "--threshold", "0.3",
        ])
        assert default == EXIT_OK
        assert tuned == EXIT_ALARM


class TestReports:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == EXIT_OK
        assert "Table 1" in capsys.readouterr().out

    def test_table3_small(self, capsys):
        assert main(["table", "3", "--trials", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Auckland" in out and "measured prob" in out

    def test_figure5(self, capsys):
        assert main(["figure", "5"]) == EXIT_OK
        assert "no false alarm" in capsys.readouterr().out

    def test_figure9(self, capsys):
        assert main(["figure", "9"]) == EXIT_OK
        assert "ALARM" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory", "--k-bar", "100"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.75" in out  # the Auckland floor


class TestUsage:
    def test_pcap_out_without_in(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        code = main(["detect", "--pcap-out", str(tmp_path / "x.pcap")])
        assert code == EXIT_USAGE

    def test_unknown_command_rejected(self):
        from repro.cli import EXIT_USAGE

        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error_and_help_is_not(self, capsys):
        from repro.cli import EXIT_USAGE

        assert main(["detect", "--bogus"]) == EXIT_USAGE
        assert main(["detect", "--help"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["detect", "--counts", "missing.csv"],
        ["observe", "--trace", "missing.csv"],
        ["detect", "--pcap-out", "missing.pcap", "--pcap-in", "x.pcap"],
        ["attack", "--counts", "missing.csv", "--rate", "5",
         "--out", "out.csv"],
    ], ids=["detect-counts", "observe-trace", "detect-pcap", "attack"])
    def test_missing_input_file_is_one_line_and_usage_exit(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import EXIT_USAGE

        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ")
        assert "missing." in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--pcap-out", "/dev/null", "--pcap-in", "/dev/null"],
        ["--no-fastpath", "--pcap-out", "/dev/null", "--pcap-in", "/dev/null"],
        ["--pcap-out", "bad.pcap", "--pcap-in", "bad.pcap"],
        ["--no-fastpath", "--pcap-out", "bad.pcap", "--pcap-in", "bad.pcap"],
        ["--counts", "bad.csv"],
    ], ids=["empty-pcap", "empty-pcap-object", "bad-magic",
            "bad-magic-object", "bad-count-line"])
    def test_malformed_input_is_one_line_and_usage_exit(
        self, argv, background_csv, tmp_path
    ):
        from repro.cli import EXIT_USAGE

        (tmp_path / "bad.pcap").write_bytes(b"\xde\xad\xbe\xef" + bytes(20))
        lines = background_csv.read_text().splitlines()
        (tmp_path / "bad.csv").write_text(
            "\n".join([*lines[:5], "5,12,x", *lines[5:]]) + "\n"
        )
        proc = run_repro(["detect", *argv], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("detect: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        if "bad.pcap" in argv:
            assert proc.stderr == "detect: bad pcap magic: 0xefbeadde\n"

    @pytest.mark.parametrize("command,source", [
        ("detect", "--counts"), ("observe", "--trace"),
    ])
    @pytest.mark.parametrize("flags", [
        ["--threshold", "nan"], ["--threshold", "inf"], ["--drift", "nan"],
        ["--threshold", "-1"], ["--drift", "0"],
    ], ids=["threshold-nan", "threshold-inf", "drift-nan", "threshold-negative",
            "drift-zero"])
    def test_invalid_detector_parameter_is_one_line_and_usage_exit(
        self, command, source, flags, background_csv, tmp_path
    ):
        # NaN compares False against every bound: accepted, it runs the
        # detector blind and reports "no flooding source detected".
        from repro.cli import EXIT_USAGE

        proc = run_repro([command, source, str(background_csv), *flags],
                         cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith(f"{command}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("duration,fmt", [
        ("0", "counts"), ("-5", "counts"), ("nan", "counts"),
        ("inf", "counts"), ("5", "counts"), ("nan", "pcap"),
    ], ids=["zero", "negative", "nan", "inf", "under-one-period",
            "nan-pcap"])
    def test_bad_generate_duration_is_one_line_and_usage_exit(
        self, duration, fmt, tmp_path, capsys
    ):
        from repro.cli import EXIT_USAGE

        out = tmp_path / "bg"
        assert main([
            "generate", "--site", "auckland", "--duration", duration,
            "--format", fmt, "--out", str(out),
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("generate: ")
        assert duration in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_metrics_path_names_the_path_given(
        self, background_csv, tmp_path
    ):
        from repro.cli import EXIT_USAGE

        target = tmp_path / "missing" / "dir" / "m.prom"
        proc = run_repro([
            "observe", "--trace", str(background_csv),
            "--metrics-out", str(target),
        ], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("observe: ")
        assert proc.stderr.count("\n") == 1
        assert f"'{target}'" in proc.stderr
        assert ".tmp" not in proc.stderr


@pytest.fixture(scope="module")
def auckland_csv(tmp_path_factory):
    """The full 10,800 s Auckland count trace."""
    path = tmp_path_factory.mktemp("auckland") / "bg.csv"
    assert main(["generate", "--site", "auckland", "--out", str(path)]) == 0
    return str(path)


class TestOptionDomains:
    """Numbers outside an option's domain are refused at the parse, as
    one line and exit 64, before anything runs or any file is written."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--duration", "nan", "--out", "r.json"],
        ["chaos", "--duration", "0", "--out", "r.json"],
        ["chaos", "--rate", "-5", "--out", "r.json"],
        ["chaos", "--duration", "x", "--out", "r.json"],
        ["profile", "--duration", "0", "--json", "p.json"],
        ["respond", "--duration", "-1", "--out", "r.json"],
        # Unchecked, a zero period loops forever, growing memory.
        ["respond", "--period", "0", "--out", "r.json"],
        ["sensitivity", "--rate", "nan", "--json", "s.json"],
        ["campaign", "--networks", "0", "--json", "c.json"],
        ["campaign", "--networks", "10", "--sample", "-2",
         "--json", "c.json"],
        ["table", "2", "--trials", "0", "--json", "t.json"],
        ["table", "9", "--json", "t.json"],
        ["theory", "--k-bar", "nan"],
        ["theory", "--k-bar", "-5"],
        ["attack", "--counts", "BG", "--rate", "nan", "--out", "m.csv"],
        ["attack", "--counts", "BG", "--rate", "5", "--start", "20000",
         "--out", "m.csv"],
        ["detect", "--counts", "BG", "--serve", "70000", "--json", "d.json"],
        ["detect", "--counts", "BG", "--serve", "-1", "--json", "d.json"],
        ["observe", "--trace", "BG", "--hold", "-1", "--serve", "0",
         "--events-out", "e.jsonl", "--metrics-out", "m.prom"],
        ["soak", "--tsdb-retention", "0", "--out", "s.json"],
    ], ids=lambda argv: "-".join(argv[:4]))
    def test_is_one_line_and_usage_exit(self, argv, auckland_csv, tmp_path):
        from repro.cli import EXIT_USAGE

        argv = [auckland_csv if arg == "BG" else arg for arg in argv]
        proc = run_repro(argv, cwd=tmp_path, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith(f"{argv[0]}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_attack_past_the_trace_names_its_span(
        self, auckland_csv, tmp_path, capsys
    ):
        from repro.cli import EXIT_USAGE

        out = tmp_path / "m.csv"
        assert main(["attack", "--counts", auckland_csv, "--rate", "5",
                     "--start", "10800", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "attack: --start 10800s is past the trace's span [0, 10800)s\n"
        )
        assert not out.exists()

    def test_count_trace_with_a_nan_period_is_bad_input(
        self, background_csv, capsys
    ):
        from repro.cli import EXIT_USAGE

        text = background_csv.read_text()
        background_csv.write_text(
            text.replace('"period": 20.0', '"period": NaN', 1)
        )
        assert main(["detect", "--counts", str(background_csv)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("detect: bad count trace ")
        assert "period must be finite and positive: nan" in err


class TestMalformedCountTrace:
    """A count trace with a bad header or line is one ``bad count
    trace`` line and exit 64 from every command that reads one."""

    @staticmethod
    def _broken(source, target, how):
        lines = source.read_text().splitlines()
        header = json.loads(lines[0].lstrip("#"))
        if how == "bad-line":
            lines.append("90,abc,3")
        elif how == "no-lines":  # the header and column names only
            lines = lines[:2]
        elif how.startswith(("text-", "null-")):
            kind, key = how.split("-", 1)
            header[key] = "x" if kind == "text" else None
        else:
            del header[how.split("-", 1)[1]]
        if how not in ("bad-line", "no-lines"):
            lines[0] = "# " + json.dumps(header)
        target.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("command", ["detect", "observe", "attack"])
    @pytest.mark.parametrize("how", [
        "no-period", "no-name", "no-duration", "no-bidirectional",
        "text-period", "text-duration", "null-duration", "bad-line",
        "no-lines",
    ])
    def test_is_one_line_and_usage_exit(
        self, command, how, background_csv, tmp_path
    ):
        from repro.cli import EXIT_USAGE

        broken = tmp_path / "broken.csv"
        self._broken(background_csv, broken, how)
        if command == "detect":
            argv = ["detect", "--counts", str(broken)]
        elif command == "observe":
            argv = ["observe", "--trace", str(broken)]
        else:
            argv = ["attack", "--counts", str(broken), "--rate", "5",
                    "--out", str(tmp_path / "mixed.csv")]
        proc = run_repro(argv, cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith(f"{command}: bad count trace ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        if how == "no-lines":
            assert proc.stderr.endswith("no count lines: the trace has no "
                                        "observation periods\n")
        elif how.startswith("no-"):
            assert proc.stderr.endswith(
                f"header lacks {how.split('-', 1)[1]}\n"
            )
        assert not (tmp_path / "mixed.csv").exists()


class TestTheoryUnderflow:
    @pytest.mark.parametrize("k_bar", ["1e-320", "5e-324"])
    def test_tiny_k_bar_is_one_line_and_usage_exit(self, k_bar):
        from repro.cli import EXIT_USAGE

        proc = run_repro(["theory", "--k-bar", k_bar])
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("theory: no finite source count")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_small_k_bar_still_reports(self, capsys):
        assert main(["theory", "--k-bar", "1e-300"]) == EXIT_OK
        assert "max hidden stub networks" in capsys.readouterr().out


class TestForensicReport:
    def test_report_flag_prints_estimates(self, background_csv, tmp_path, capsys):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        code = main(["detect", "--counts", str(mixed), "--quiet", "--report"])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "forensic report" in out
        assert "estimated onset" in out
        assert "estimated rate" in out
        # The onset estimate should name (roughly) the true start.
        assert "t = 360s" in out


class TestJsonExport:
    def test_detect_json(self, background_csv, tmp_path):
        import json

        out = tmp_path / "run.json"
        main(["detect", "--counts", str(background_csv), "--quiet",
              "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["alarmed"] is False
        assert len(payload["periods"]) == 90
        assert {"syn", "synack", "x", "y"} <= set(payload["periods"][0])

    def test_table_json(self, tmp_path):
        import json

        out = tmp_path / "table3.json"
        main(["table", "3", "--trials", "2", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["title"] == "Table 3"
        assert len(payload["rows"]) == 5
        assert payload["rows"][0]["flood_rate"] == 1.5


class TestObserveCommand:
    @pytest.fixture
    def mixed_csv(self, background_csv, tmp_path):
        mixed = tmp_path / "mixed.csv"
        code = main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        assert code == EXIT_OK
        return mixed

    def test_observe_produces_metrics_and_events(
        self, mixed_csv, tmp_path, capsys
    ):
        from repro.obs import parse_prometheus_text, read_jsonl

        metrics = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        code = main([
            "observe", "--trace", str(mixed_csv),
            "--metrics-out", str(metrics), "--events-out", str(events),
        ])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "periods observed" in out
        # The Prometheus file is machine-readable and carries the
        # detector families.
        samples = parse_prometheus_text(metrics.read_text())
        names = {name for name, _, _ in samples}
        assert "syndog_periods_total" in names
        assert "syndog_statistic" in names
        assert "trace_span_count" not in names
        # One JSONL event per observation period, with the full
        # trajectory point (the acceptance contract).
        all_events = read_jsonl(events)
        periods = [e for e in all_events if e["event"] == "period"]
        assert len(periods) == 90
        for i, event in enumerate(periods):
            assert event["period_index"] == i
            assert {"x", "statistic", "alarm"} <= set(event)
        assert any(e["event"] == "alarm_raised" for e in all_events)

    def test_observe_clean_trace_no_alarm(self, background_csv, tmp_path):
        code = main([
            "observe", "--trace", str(background_csv),
            "--metrics-out", str(tmp_path / "m.prom"),
        ])
        assert code == EXIT_OK

    def test_observe_pcap_pair(self, tmp_path):
        from repro.obs import parse_prometheus_text

        main([
            "generate", "--site", "harvard", "--seed", "2",
            "--duration", "300", "--format", "pcap",
            "--out", str(tmp_path / "h"),
        ])
        metrics = tmp_path / "metrics.prom"
        code = main([
            "observe",
            "--pcap-out", str(tmp_path / "h.out.pcap"),
            "--pcap-in", str(tmp_path / "h.in.pcap"),
            "--metrics-out", str(metrics),
        ])
        assert code == EXIT_OK
        names = {
            name for name, _, _ in parse_prometheus_text(metrics.read_text())
        }
        # Packet-level ingestion exercises the sniffers too.
        assert "sniffer_packets_total" in names

    def test_observe_pcap_out_without_in_rejected(self, tmp_path):
        from repro.cli import EXIT_USAGE

        code = main(["observe", "--pcap-out", str(tmp_path / "x.pcap")])
        assert code == EXIT_USAGE

    def test_detect_metrics_out(self, mixed_csv, tmp_path, capsys):
        from repro.obs import parse_prometheus_text

        metrics = tmp_path / "detect.prom"
        code = main([
            "detect", "--counts", str(mixed_csv), "--quiet",
            "--metrics-out", str(metrics),
        ])
        assert code == EXIT_ALARM
        assert "metric samples" in capsys.readouterr().out
        names = {
            name for name, _, _ in parse_prometheus_text(metrics.read_text())
        }
        assert "syndog_periods_total" in names

    def test_campaign_metrics_out(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text

        metrics = tmp_path / "campaign.prom"
        code = main([
            "campaign", "--aggregate", "5000", "--networks", "500",
            "--site", "auckland", "--sample", "2",
            "--metrics-out", str(metrics),
        ])
        assert code == EXIT_ALARM
        names = {
            name for name, _, _ in parse_prometheus_text(metrics.read_text())
        }
        assert "campaign_networks_total" in names
        assert "campaign_detection_fraction" in names


class TestCampaignCommand:
    def test_concentrated_campaign_detected(self, capsys):
        code = main([
            "campaign", "--aggregate", "5000", "--networks", "500",
            "--site", "auckland", "--sample", "3",
        ])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "dogs barking    : 100%" in out

    def test_dispersed_campaign_hides(self, capsys):
        code = main([
            "campaign", "--aggregate", "5000", "--networks", "10000",
            "--site", "auckland", "--sample", "3",
        ])
        assert code == EXIT_OK
        assert "hides below" in capsys.readouterr().out


class TestReportCommand:
    @pytest.fixture
    def events_jsonl(self, background_csv, tmp_path):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        events = tmp_path / "events.jsonl"
        code = main([
            "observe", "--trace", str(mixed),
            "--events-out", str(events),
        ])
        assert code == EXIT_ALARM
        return events

    def test_report_reconstructs_detection_from_jsonl(
        self, events_jsonl, capsys
    ):
        code = main(["report", str(events_jsonl)])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "detection latency" in out
        assert "false alarms" in out
        assert "raised t=" in out

    def test_report_json_format(self, events_jsonl, tmp_path):
        import json

        out = tmp_path / "report.json"
        code = main([
            "report", str(events_jsonl), "--format", "json",
            "--out", str(out),
        ])
        assert code == EXIT_ALARM
        payload = json.loads(out.read_text())
        assert payload["alarms"] >= 1
        assert payload["detections"] >= 1
        assert payload["false_alarms"] == 0
        [timeline] = payload["agents"].values()
        assert timeline["periods"] == 90
        assert timeline["spans"][0]["latency_periods"] >= 1

    def test_report_markdown_format(self, events_jsonl, capsys):
        code = main(["report", str(events_jsonl), "--format", "markdown"])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "| agent |" in out
        assert "## Alarm timeline" in out

    def test_report_missing_file_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_USAGE
        assert "No such file or directory" in capsys.readouterr().err


class TestServeFlag:
    def test_observe_serve_announces_endpoints(
        self, background_csv, capsys
    ):
        code = main([
            "observe", "--trace", str(background_csv), "--serve", "0",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "serving http://127.0.0.1:" in out
        assert "/metrics /healthz /events" in out

    def test_observe_serve_scrapes_mid_run(
        self, background_csv, monkeypatch
    ):
        """The acceptance bar: a GET against /metrics issued while the
        run is still in flight round-trips through the parser."""
        import urllib.request

        from repro.obs import parse_prometheus_text
        from repro.obs.server import ObsServer

        scraped = []
        original = ObsServer.start

        def start_and_scrape(self):
            original(self)
            with urllib.request.urlopen(
                self.url + "/metrics", timeout=5
            ) as response:
                scraped.append(response.read().decode("utf-8"))

        monkeypatch.setattr(ObsServer, "start", start_and_scrape)
        code = main([
            "observe", "--trace", str(background_csv), "--serve", "0",
        ])
        assert code == EXIT_OK
        [body] = scraped
        assert isinstance(parse_prometheus_text(body), list)

    def test_detect_serve_without_metrics_out(self, background_csv, capsys):
        code = main([
            "detect", "--counts", str(background_csv), "--quiet",
            "--serve", "0",
        ])
        assert code == EXIT_OK
        assert "serving http://127.0.0.1:" in capsys.readouterr().out


class TestChaos:
    def test_chaos_within_envelope_exits_ok(self, capsys):
        code = main(["chaos", "--seed", "42", "--schedule", "lossy-crash"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "degradation within envelope" in out
        assert "faults injected" in out

    def test_chaos_report_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "chaos1.json"
        second = tmp_path / "chaos2.json"
        for path in (first, second):
            code = main([
                "chaos", "--seed", "42", "--schedule", "lossy-crash",
                "--out", str(path),
            ])
            assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        import json

        report = json.loads(first.read_text())
        assert report["within_envelope"] is True
        assert report["faulted"]["degraded_periods"] > 0
        assert sum(report["faults_injected"].values()) > 0

    def test_chaos_metrics_export_fault_counters(self, tmp_path, capsys):
        metrics = tmp_path / "chaos.prom"
        code = main([
            "chaos", "--seed", "42", "--metrics-out", str(metrics),
        ])
        assert code == EXIT_OK
        text = metrics.read_text()
        assert "faults_injected_total{" in text
        assert "degraded_periods_total{" in text

    def test_chaos_impossible_envelope_exits_degraded(self, capsys):
        from repro.cli import EXIT_DEGRADED

        code = main([
            "chaos", "--seed", "42", "--schedule", "lossy-crash",
            "--max-delay-ratio", "0.0",
        ])
        assert code == EXIT_DEGRADED
        assert "EXCEEDS" in capsys.readouterr().out

    def test_help_lists_the_schedules_and_names_the_default(
        self, capsys, monkeypatch
    ):
        # The choices are read from the schedule table at --help time;
        # the default is the campaign's, which the help names.
        from repro.faults.schedule import BUILTIN_SCHEDULES, DEFAULT_SCHEDULE

        monkeypatch.setenv("COLUMNS", "400")  # one help line per option
        assert main(["chaos", "--help"]) == EXIT_OK
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("--schedule NAME")]
        assert ", ".join(sorted(BUILTIN_SCHEDULES)) in line
        assert line.endswith(f"(default: the campaign's, {DEFAULT_SCHEDULE})")

    def test_chaos_unknown_schedule_rejected(self):
        from repro.cli import EXIT_USAGE

        assert main(["chaos", "--schedule", "no-such-schedule"]) == EXIT_USAGE


class TestQueryCommand:
    @pytest.fixture
    def events_jsonl(self, background_csv, tmp_path):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        events = tmp_path / "events.jsonl"
        code = main([
            "observe", "--trace", str(mixed),
            "--events-out", str(events),
        ])
        assert code == EXIT_ALARM
        return events

    def test_offline_query_over_events(self, events_jsonl, capsys):
        code = main([
            "query", "max_over_time(syndog_cusum[5m])",
            "--events", str(events_jsonl),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "result           : 1 series" in out
        assert '{agent="syndog-' in out  # auto-named, counter is global

    def test_offline_query_at_time(self, events_jsonl, capsys):
        import json

        code = main([
            "query", "syndog_cusum", "--events", str(events_jsonl),
            "--at", "400", "--json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["at"] == 400.0
        (entry,) = payload["result"]
        assert entry["value"] > 1.05  # mid-flood, past the threshold

    def test_malformed_expression_is_usage_error(
        self, events_jsonl, capsys
    ):
        from repro.cli import EXIT_USAGE

        code = main([
            "query", "rate(nope", "--events", str(events_jsonl),
        ])
        assert code == EXIT_USAGE
        assert "query:" in capsys.readouterr().err

    def test_missing_events_file_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        code = main([
            "query", "syndog_cusum", "--events",
            str(tmp_path / "nope.jsonl"),
        ])
        assert code == EXIT_USAGE
        assert "No such file or directory" in capsys.readouterr().err

    def test_query_against_live_server(self, events_jsonl, capsys):
        import json

        from repro.obs import enabled_instrumentation, read_jsonl
        from repro.obs.server import ObsServer
        from repro.obs.tsdb import tsdb_from_events

        obs = enabled_instrumentation()
        obs.tsdb.merge_from(
            tsdb_from_events(read_jsonl(events_jsonl)).to_dict()
        )
        with ObsServer(obs) as server:
            code = main([
                "query", "max_over_time(syndog_cusum[5m])",
                "--url", server.url, "--json",
            ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1


class TestAlertsCommand:
    @pytest.fixture
    def events_jsonl(self, background_csv, tmp_path):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        events = tmp_path / "events.jsonl"
        code = main([
            "observe", "--trace", str(mixed),
            "--events-out", str(events),
        ])
        assert code == EXIT_ALARM
        return events

    def test_offline_replay_exits_alarm_when_rules_fired(
        self, events_jsonl, capsys
    ):
        code = main(["alerts", "--events", str(events_jsonl)])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "cusum_near_threshold" in out
        assert "-> firing" in out

    def test_offline_replay_is_deterministic_json(
        self, events_jsonl, capsys
    ):
        outputs = []
        for _ in range(2):
            code = main([
                "alerts", "--events", str(events_jsonl), "--json",
            ])
            assert code == EXIT_ALARM
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_custom_rules_file(self, events_jsonl, tmp_path, capsys):
        import json

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "never", "expr": "syndog_cusum > 10000"},
        ]), encoding="utf-8")
        code = main([
            "alerts", "--events", str(events_jsonl),
            "--rules", str(rules),
        ])
        assert code == EXIT_OK  # the rule never fired

    def test_bad_rules_file_is_usage_error(
        self, events_jsonl, tmp_path, capsys
    ):
        from repro.cli import EXIT_USAGE

        rules = tmp_path / "rules.json"
        rules.write_text('"nope"', encoding="utf-8")
        code = main([
            "alerts", "--events", str(events_jsonl),
            "--rules", str(rules),
        ])
        assert code == EXIT_USAGE
        assert "bad rules file" in capsys.readouterr().err


class TestObserveAlertsAndTrace:
    def test_observe_with_live_alerts(self, background_csv, tmp_path, capsys):
        mixed = tmp_path / "mixed.csv"
        main([
            "attack", "--counts", str(background_csv), "--rate", "5",
            "--start", "360", "--out", str(mixed),
        ])
        code = main(["observe", "--trace", str(mixed), "--alerts"])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "alerts           : 8 rules" in out
        assert "alerts fired     : cusum_near_threshold" in out

    def test_observe_trace_out_is_a_usage_error(
        self, background_csv, tmp_path, capsys
    ):
        from repro.cli import EXIT_USAGE

        trace = tmp_path / "trace.json"
        code = main([
            "observe", "--trace", str(background_csv),
            "--trace-out", str(trace),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        # argparse prints its usage block; one line names the flag.
        [line] = [line for line in err.splitlines() if "--trace-out" in line]
        assert "unrecognized arguments" in line
        assert "Traceback" not in err
        assert not trace.exists()
        # The detection timing the flag used to export still prints.
        assert main(["observe", "--trace", str(background_csv)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "detection pass   : " in out
        assert " ms wall clock" in out


#: The per-stage baseline CI's ``repro profile --baseline`` step reads.
COMMITTED_PROFILE = Path(__file__).resolve().parent.parent / "BENCH_profile.json"


class TestProfileCommand:
    def test_cost_model_run_with_exports(self, tmp_path, capsys):
        import json

        prof_json = tmp_path / "prof.json"
        folded = tmp_path / "prof.folded"
        callgrind = tmp_path / "prof.callgrind"
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--seed", "7", "--duration", "25",
            "--json", str(prof_json), "--flame-out", str(folded),
            "--callgrind-out", str(callgrind),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mode cost-model" in out
        # Default arm is the columnar fastpath.
        assert "fastpath.parse" in out
        document = json.loads(prof_json.read_text())
        assert document["mode"] == "cost-model"
        from repro.obs.profiler import parse_callgrind, parse_folded

        stacks = parse_folded(folded.read_text())
        assert "syndog;fastpath;parse" in stacks
        parsed = parse_callgrind(callgrind.read_text())
        assert "fastpath.classify" in parsed["stages"]

    def test_no_fastpath_profiles_the_object_arm(self, capsys):
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--seed", "7", "--duration", "25", "--no-fastpath",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "pcap.parse" in out
        assert "classify" in out
        assert "fastpath.parse" not in out

    def test_cost_model_json_byte_identical_across_workers(self, tmp_path):
        w1 = tmp_path / "w1.json"
        w2 = tmp_path / "w2.json"
        base = [
            "profile", "--mode", "cost-model", "--networks", "2",
            "--seed", "7", "--duration", "25",
        ]
        assert main(base + ["--workers", "1", "--json", str(w1)]) == EXIT_OK
        assert main(base + ["--workers", "2", "--json", str(w2)]) == EXIT_OK
        assert w1.read_bytes() == w2.read_bytes()

    def test_timers_mode_runs(self, capsys):
        code = main([
            "profile", "--mode", "timers", "--networks", "1",
            "--duration", "25", "--sample-every", "8",
        ])
        assert code == EXIT_OK
        assert "mode timers" in capsys.readouterr().out

    def test_baseline_regression_exits_alarm(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"fastpath.parse": 1.0}))
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--duration", "25", "--baseline", str(baseline),
        ])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "REGRESSION       : fastpath.parse" in out

    def test_baseline_within_tolerance_is_ok(self, tmp_path, capsys):
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--seed", "7", "--duration", "25",
            "--json", str(tmp_path / "prof.json"),
        ])
        assert code == EXIT_OK
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--seed", "7", "--duration", "25",
            "--baseline", str(tmp_path / "prof.json"),
        ])
        assert code == EXIT_OK
        assert "REGRESSED" not in capsys.readouterr().out

    def test_baseline_stage_the_run_did_not_make_fails(
        self, tmp_path, capsys
    ):
        # The default run takes the fastpath, which makes no classify
        # stage: a baseline naming one checks nothing, so it is an
        # error, not a pass.
        from repro.cli import EXIT_USAGE

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"classify": 1.0}))
        code = main(["profile", "--mode", "timers",
                     "--baseline", str(baseline)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("profile: ") and err.count("\n") == 1
        assert "classify" in err

    def test_committed_baseline_divided_by_100_exits_alarm(
        self, tmp_path, capsys
    ):
        document = json.loads(COMMITTED_PROFILE.read_text())
        for row in document["stages"]:
            row["ns_per_packet"] /= 100
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(document))
        code = main(["profile", "--mode", "timers",
                     "--baseline", str(baseline)])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        stages = sorted(row["stage"] for row in document["stages"])
        assert f"REGRESSION       : {', '.join(stages)}" in out

    def test_committed_baseline_passes_at_ci_tolerance(self, capsys):
        # CI's step: every committed stage is compared, and passes.
        code = main(["profile", "--mode", "timers",
                     "--baseline", str(COMMITTED_PROFILE),
                     "--baseline-tolerance", "25"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for row in json.loads(COMMITTED_PROFILE.read_text())["stages"]:
            assert f"baseline         : {row['stage']:<16} " in out

    def test_bad_baseline_file_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        baseline = tmp_path / "base.json"
        baseline.write_text("not json")
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--duration", "25", "--baseline", str(baseline),
        ])
        assert code == EXIT_USAGE
        assert "bad baseline file" in capsys.readouterr().err

    def test_events_out_feeds_report_profile(self, tmp_path, capsys):
        events = tmp_path / "prof.events.jsonl"
        code = main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--seed", "7", "--duration", "25",
            "--events-out", str(events),
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["report", str(events), "--profile"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "per-stage cost attribution" in out
        assert "fastpath.parse" in out
        code = main(["report", str(events), "--profile",
                     "--format", "markdown"])
        assert code == EXIT_OK
        assert "## Per-stage cost attribution" in capsys.readouterr().out

    def test_report_without_profile_flag_omits_section(
        self, tmp_path, capsys
    ):
        events = tmp_path / "prof.events.jsonl"
        main([
            "profile", "--mode", "cost-model", "--networks", "1",
            "--duration", "25", "--events-out", str(events),
        ])
        capsys.readouterr()
        assert main(["report", str(events)]) == EXIT_OK
        assert "per-stage cost" not in capsys.readouterr().out


class TestFleet:
    @pytest.fixture
    def fleet_log(self, tmp_path):
        """The events log of a 3-member federation: ``eng`` flooded
        and alarming, ``dorms`` quiet, ``library`` crashed."""
        from repro.obs import enabled_instrumentation
        from repro.packet import IPv4Network
        from repro.router import Federation

        obs = enabled_instrumentation(
            events_path=str(tmp_path / "fleet.events.jsonl")
        )
        federation = Federation(obs=obs)
        for index, name in enumerate(("eng", "dorms", "library")):
            federation.add_network(
                name, IPv4Network.parse(f"10.{index + 1}.0.0/16")
            )
        for name in ("eng", "dorms"):
            dog = federation.member(name)[1].detector
            for period in range(12):
                flood = 400 if name == "eng" and period >= 6 else 0
                dog.observe_period(100 + flood, 100)

        def dead_sniffer():
            raise RuntimeError("sniffer segfault")
            yield

        with pytest.raises(RuntimeError):
            federation.feed("library", dead_sniffer(), [])
        obs.finalize()
        return tmp_path / "fleet.events.jsonl"

    def test_events_fleet_json_document(self, fleet_log, capsys):
        from repro.obs.events import read_jsonl
        from repro.obs.rollup import DEFAULT_TOP_K, rollup_from_events

        code = main(["fleet", "--events", str(fleet_log), "--json"])
        assert code == EXIT_ALARM  # eng is alarming
        doc = json.loads(capsys.readouterr().out)
        assert doc == json.loads(json.dumps(
            rollup_from_events(read_jsonl(str(fleet_log))).to_dict()
        ))
        assert doc["k"] == DEFAULT_TOP_K
        assert doc["agents"] == {
            "total": 3, "ok": 1, "degraded": 0, "alarming": 1, "down": 1,
            "quorum": pytest.approx(2 / 3), "alarm_fraction": 1 / 3,
        }
        assert doc["watermark"] == 240.0

    def test_text_rendering_has_digest_and_suspect_tables(
        self, fleet_log, capsys
    ):
        code = main(["fleet", "--events", str(fleet_log)])
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        assert "fleet" in out
        assert "p99" in out
        assert "highest CUSUM" in out
        assert "router-eng" in out

    def test_events_replay_matches_rollup_from_events(
        self, tmp_path, capsys
    ):
        import json

        events = tmp_path / "fleet.events.jsonl"
        rows = [
            {"event": "period", "agent": "a", "period_index": 0,
             "end_time": 20.0, "syn": 150, "synack": 100, "x": 0.5,
             "statistic": 1.2, "alarm": True},
            {"event": "period", "agent": "b", "period_index": 0,
             "end_time": 20.0, "syn": 100, "synack": 100, "x": 0.0,
             "statistic": 0.0, "alarm": False},
        ]
        events.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n"
        )
        code = main(["fleet", "--events", str(events), "--json"])
        assert code == EXIT_ALARM  # agent a is alarming
        doc = json.loads(capsys.readouterr().out)
        assert doc["agents"]["total"] == 2
        assert doc["agents"]["alarming"] == 1
        assert doc["watermark"] == 20.0

    def test_missing_events_file_is_usage_error(self, capsys):
        from repro.cli import EXIT_USAGE

        code = main(["fleet", "--events", "/nonexistent/nope.jsonl"])
        assert code == EXIT_USAGE

    def test_corrupt_events_file_is_one_line(self, tmp_path, capsys):
        events = tmp_path / "cut.jsonl"
        events.write_text('{"event": "period", "agent": "a", "per')
        assert main(["fleet", "--events", str(events)]) == EXIT_ALARM
        err = capsys.readouterr().err
        assert err.startswith("fleet: truncated or corrupt events file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--synthetic", "5"], ["--k", "3"], ["--workers", "2"],
        ["--seed", "7"], ["--serve", "0"], ["--hold", "1"],
    ], ids=lambda argv: argv[0])
    def test_reads_only_detectors_that_ran(self, argv, tmp_path, capsys):
        # A live /fleet or a recorded log is the only source: the
        # options of the synthetic fleet are usage errors.
        from repro.cli import EXIT_USAGE

        events = tmp_path / "empty.jsonl"
        events.write_text("")
        assert main(["fleet", "--events", str(events), *argv]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
