"""Unit tests for the hot-path profiler (:mod:`repro.obs.profiler`).

Covers the accumulator and both modes, snapshot/merge, the exporters
(including the edge cases the exporters contract names: empty profile,
single-stage profile, folded-stack and callgrind round-trips) and the
runtime wiring.
"""

import json

import pytest

from repro.obs import enabled_instrumentation
from repro.obs.exporters import export_profiler, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    COST_MODEL,
    PIPELINE_STAGES,
    Profiler,
    callgrind_format,
    folded_stacks,
    merge_stage_rows,
    parse_callgrind,
    parse_folded,
    write_callgrind,
    write_folded,
)


def cost_model_profile(packets=10, nbytes=100):
    """A small populated cost-model profiler (deterministic)."""
    profiler = Profiler(mode="cost-model")
    parse = profiler.stage("pcap.parse")
    classify = profiler.stage("classify")
    for _ in range(packets):
        parse.add(nbytes=nbytes)
        classify.add()
    cusum = profiler.stage("cusum.step", sample_every=1)
    cusum.end(cusum.begin(), packets=1)
    return profiler


class TestStageHandle:
    def test_add_accumulates_counts(self):
        handle = Profiler(mode="timers").stage("classify")
        handle.add()
        handle.add(packets=3, nbytes=120)
        assert handle.calls == 2
        assert handle.packets == 4
        assert handle.bytes == 120
        assert handle.timed_calls == 0

    def test_sampling_cadence(self):
        handle = Profiler(mode="timers", sample_every=4).stage("classify")
        hits = [handle.sample() for _ in range(12)]
        assert hits == [False, False, False, True] * 3

    def test_cost_model_never_samples_or_times(self):
        handle = Profiler(mode="cost-model").stage("classify")
        assert not any(handle.sample() for _ in range(100))
        assert handle.begin() is None

    def test_begin_end_times_coarse_stage(self):
        handle = Profiler(mode="timers").stage("cusum.step", sample_every=1)
        token = handle.begin()
        assert token is not None
        handle.end(token, packets=1)
        assert handle.calls == 1
        assert handle.timed_calls == 1
        assert handle.wall_ns >= 0

    def test_end_with_none_token_still_counts(self):
        handle = Profiler(mode="timers", sample_every=64).stage("classify")
        handle.end(None, packets=2, nbytes=80)
        assert handle.calls == 1
        assert handle.packets == 2
        assert handle.bytes == 80
        assert handle.timed_calls == 0


class TestProfiler:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown profiler mode"):
            Profiler(mode="perf")

    def test_stage_is_bind_once(self):
        profiler = Profiler()
        assert profiler.stage("classify") is profiler.stage("classify")
        assert len(profiler) == 1

    def test_cost_model_derivation_matches_constants(self):
        profiler = cost_model_profile(packets=10, nbytes=100)
        rows = {row["stage"]: row for row in profiler.stage_documents()}
        parse_cost = COST_MODEL["pcap.parse"]
        expected = (
            parse_cost.per_call_ns * 10
            + parse_cost.per_packet_ns * 10
            + parse_cost.per_byte_ns * 1000
        )
        assert rows["pcap.parse"]["ns_total"] == expected
        assert rows["pcap.parse"]["allocs"] == parse_cost.allocs_per_call * 10
        assert rows["classify"]["ns_total"] == (
            COST_MODEL["classify"].per_call_ns * 10
        )
        # Derived, not measured: no clock was read.
        assert all(row["timed_calls"] == 0 for row in rows.values())

    def test_cost_model_document_is_deterministic(self):
        a = json.dumps(cost_model_profile().to_dict(), sort_keys=True)
        b = json.dumps(cost_model_profile().to_dict(), sort_keys=True)
        assert a == b

    def test_unknown_stage_uses_default_cost(self):
        profiler = Profiler(mode="cost-model")
        profiler.stage("exotic.stage").add()
        (row,) = profiler.stage_documents()
        assert row["ns_total"] > 0

    def test_timers_extrapolates_sampled_clocks(self):
        profiler = Profiler(mode="timers", sample_every=4)
        handle = profiler.stage("classify")
        for _ in range(8):
            if handle.sample():
                handle.add_timed(100, 80, 2)
            else:
                handle.add()
        (row,) = profiler.stage_documents()
        assert row["calls"] == 8
        assert row["timed_calls"] == 2
        # 2 timed calls x 100ns, extrapolated x4.
        assert row["ns_total"] == 800
        assert row["cpu_ns_total"] == 640
        assert row["allocs"] == 16

    def test_timers_with_no_timed_calls_reports_zero(self):
        profiler = Profiler(mode="timers", sample_every=64)
        profiler.stage("classify").add()
        (row,) = profiler.stage_documents()
        assert row["ns_total"] == 0
        assert row["calls"] == 1

    def test_to_dict_totals_and_order(self):
        document = cost_model_profile().to_dict()
        assert document["mode"] == "cost-model"
        names = [row["stage"] for row in document["stages"]]
        assert names == sorted(names)
        assert document["total_calls"] == sum(
            row["calls"] for row in document["stages"]
        )
        assert document["total_ns"] == sum(
            row["ns_total"] for row in document["stages"]
        )

    def test_stage_documents_skip_uncalled_stages(self):
        profiler = Profiler(mode="cost-model")
        profiler.stage("classify")  # bound but never called
        assert profiler.stage_documents() == []

    def test_snapshot_merge_equals_combined_counts(self):
        shard1 = cost_model_profile(packets=5)
        shard2 = cost_model_profile(packets=7)
        parent = Profiler(mode="cost-model")
        parent.merge_from(shard1.to_snapshot())
        parent.merge_from(shard2.to_snapshot())
        rows = {row["stage"]: row for row in parent.stage_documents()}
        assert rows["pcap.parse"]["calls"] == 12
        assert rows["classify"]["packets"] == 12
        assert rows["cusum.step"]["calls"] == 2
        combined = cost_model_profile(packets=12)
        # ns derivation is linear in counts, so parse/classify agree
        # with a single profiler that saw all 12 packets.
        combined_rows = {
            row["stage"]: row for row in combined.stage_documents()
        }
        assert (
            rows["classify"]["ns_total"]
            == combined_rows["classify"]["ns_total"]
        )

    def test_snapshot_excludes_uncalled_stages(self):
        profiler = Profiler(mode="cost-model")
        profiler.stage("classify")
        assert profiler.to_snapshot() == {}


class TestMergeStageRows:
    def test_merges_and_rederives_rates(self):
        doc1 = cost_model_profile(packets=5).to_dict()
        doc2 = cost_model_profile(packets=5).to_dict()
        rows = {row["stage"]: row for row in merge_stage_rows([doc1, doc2])}
        assert rows["classify"]["calls"] == 10
        assert rows["classify"]["ns_per_call"] == pytest.approx(
            COST_MODEL["classify"].per_call_ns
        )

    def test_empty_input(self):
        assert merge_stage_rows([]) == []
        assert merge_stage_rows([{"stages": []}]) == []


class TestFoldedStacks:
    def test_empty_profile_renders_empty(self):
        assert folded_stacks(Profiler().to_dict()) == ""
        assert parse_folded("") == {}

    def test_single_stage_profile(self):
        profiler = Profiler(mode="cost-model")
        profiler.stage("classify").add()
        text = folded_stacks(profiler.to_dict())
        assert text == (
            f"syndog;classify {COST_MODEL['classify'].per_call_ns}\n"
        )

    def test_dotted_names_become_frames(self):
        text = folded_stacks(cost_model_profile().to_dict())
        assert "syndog;pcap;parse " in text
        assert "syndog;cusum;step " in text

    def test_round_trip(self):
        document = cost_model_profile().to_dict()
        stacks = parse_folded(folded_stacks(document))
        expected = {
            "syndog;" + row["stage"].replace(".", ";"): row["ns_total"]
            for row in document["stages"]
        }
        assert stacks == expected

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_folded("1234")

    def test_write_folded(self, tmp_path):
        path = tmp_path / "prof.folded"
        count = write_folded(cost_model_profile().to_dict(), path)
        assert count == 3
        assert len(path.read_text().splitlines()) == 3


class TestCallgrind:
    def test_round_trip(self):
        document = cost_model_profile().to_dict()
        parsed = parse_callgrind(callgrind_format(document))
        assert parsed["events"] == ["Ns", "Calls", "Packets", "Bytes", "Allocs"]
        for row in document["stages"]:
            costs = parsed["stages"][row["stage"]]
            assert costs["ns_total"] == row["ns_total"]
            assert costs["calls"] == row["calls"]
            assert costs["packets"] == row["packets"]
            assert costs["bytes"] == row["bytes"]
            assert costs["allocs"] == row["allocs"]
        assert parsed["summary"][0] == document["total_ns"]
        assert parsed["summary"][1] == document["total_calls"]

    def test_empty_profile(self):
        parsed = parse_callgrind(callgrind_format(Profiler().to_dict()))
        assert parsed["stages"] == {}
        assert parsed["summary"] == [0, 0, 0, 0, 0]

    def test_single_stage_profile(self):
        profiler = Profiler(mode="cost-model")
        profiler.stage("classify").add()
        parsed = parse_callgrind(callgrind_format(profiler.to_dict()))
        assert list(parsed["stages"]) == ["classify"]

    def test_write_callgrind(self, tmp_path):
        path = tmp_path / "prof.callgrind"
        assert write_callgrind(cost_model_profile().to_dict(), path) == 3
        assert "fn=classify" in path.read_text()


class TestExportProfiler:
    def test_exports_counters_idempotently(self):
        profiler = cost_model_profile()
        registry = MetricsRegistry()
        export_profiler(profiler, registry)
        export_profiler(profiler, registry)  # second export: no double count
        text = render_prometheus(registry)
        row = next(
            row for row in profiler.stage_documents()
            if row["stage"] == "classify"
        )
        assert (
            f'profile_stage_ns_total{{stage="classify"}} {row["ns_total"]}'
            in text
        )
        assert 'profile_stage_calls_total{stage="classify"} 10' in text

    def test_empty_profiler_exports_nothing(self):
        registry = MetricsRegistry()
        export_profiler(Profiler(), registry)
        assert "profile_stage" not in render_prometheus(registry)


class TestRuntimeWiring:
    def test_disabled_by_default(self):
        obs = enabled_instrumentation()
        assert obs.profiler is None
        assert obs.summary()["profile_stages"] == 0

    def test_enabled_bundle_wires_profiler(self):
        obs = enabled_instrumentation(profiler="cost-model")
        assert obs.profiler is not None
        assert obs.profiler.mode == "cost-model"
        obs.profiler.stage("classify").add()
        assert obs.summary()["profile_stages"] == 1

    def test_finalize_emits_profile_event_and_metrics(self, tmp_path):
        path = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        obs = enabled_instrumentation(
            events_path=path, profiler="cost-model"
        )
        obs.profiler.stage("classify").add()
        obs.finalize(metrics)
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        profile_events = [
            event for event in events if event["event"] == "profile"
        ]
        assert len(profile_events) == 1
        assert profile_events[0]["mode"] == "cost-model"
        assert profile_events[0]["stages"][0]["stage"] == "classify"
        assert "profile_stage_ns_total" in metrics.read_text()

class TestProfilerRules:
    def test_pipeline_stage_names_cover_cost_model(self):
        assert set(COST_MODEL) == set(PIPELINE_STAGES)
