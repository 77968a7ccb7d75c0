"""The resource ledger: occupancy sampling and the flatness gate."""

import pytest

from repro.obs import ledger
from repro.obs.runtime import enabled_instrumentation
from repro.obs.tsdb import TimeSeriesDB


def bundle():
    return enabled_instrumentation(memory_events=True)


class TestCollectOccupancy:
    def test_counts_every_bounded_structure(self):
        obs = bundle()
        obs.tsdb.append("y", None, 20.0, 1.0)
        obs.recorder.record("a", {"alarm": False, "period_index": 0})
        occupancy = ledger.collect_occupancy(obs)
        assert occupancy["obs_ledger_tsdb_points"] == 1.0
        assert occupancy["obs_ledger_tsdb_series"] == 1.0
        assert occupancy["obs_ledger_recorder_ring"] == 1.0
        assert occupancy["obs_ledger_tsdb_compactions"] == 0.0

    def test_event_baseline_gives_depth_since_mark(self):
        obs = bundle()
        obs.events.emit("x")
        obs.events.emit("x")
        baseline = obs.events.events_emitted
        obs.events.emit("x")
        occupancy = ledger.collect_occupancy(obs, events_baseline=baseline)
        assert occupancy["obs_ledger_event_sink_depth"] == 1.0


    def test_bundle_without_store_or_recorder_reads_zero(self):
        from repro.obs.runtime import NULL_INSTRUMENTATION

        occupancy = ledger.collect_occupancy(NULL_INSTRUMENTATION)
        assert occupancy == dict.fromkeys(ledger._STORE_KEYS, 0.0)


class TestSample:
    def test_lands_in_target_store_not_the_observed_one(self):
        obs = bundle()
        obs.tsdb.append("y", None, 20.0, 1.0)
        target = TimeSeriesDB()
        ledger.sample(obs, 100.0, into=target)
        # The observed store still holds exactly its one feed sample;
        # a self-sample would have grown the structure under test.
        assert obs.tsdb.points_retained() == 1
        assert target.query("obs_ledger_tsdb_points") == [
            {"labels": {}, "value": 1.0}
        ]

    def test_labels_keep_two_ledgers_apart(self):
        obs = bundle()
        target = TimeSeriesDB()
        ledger.sample(obs, 100.0, into=target, labels={"store": "live"})
        rows = target.query('obs_ledger_tsdb_points{store="live"}')
        assert len(rows) == 1

    def test_extra_merges_precomputed_quantities(self):
        obs = bundle()
        target = TimeSeriesDB()
        ledger.sample(obs, 100.0, into=target,
                      extra={"obs_ledger_event_sink_depth": 7.0})
        assert target.query("obs_ledger_event_sink_depth")[0]["value"] == 7.0


class TestFlatness:
    def feed(self, tsdb, name, per_day, days=3, labels=None):
        for day, value in enumerate(per_day[:days]):
            tsdb.append(name, labels, day * ledger.DAY_SECONDS + 10.0,
                        value)

    def test_high_water_buckets_by_simulated_day(self):
        tsdb = TimeSeriesDB()
        tsdb.append("obs_ledger_tsdb_points", None, 10.0, 5.0)
        tsdb.append("obs_ledger_tsdb_points", None, 20.0, 9.0)
        tsdb.append("obs_ledger_tsdb_points", None,
                    ledger.DAY_SECONDS + 10.0, 7.0)
        marks = ledger.ledger_high_water(tsdb)
        assert marks["obs_ledger_tsdb_points"] == {0: 9.0, 1: 7.0}

    def test_flat_series_passes(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_tsdb_points", [100.0, 100.0, 100.0])
        verdict = ledger.ledger_flatness(tsdb)
        assert verdict["max_growth"] == 0.0
        assert verdict["series"]["obs_ledger_tsdb_points"]["gated"]

    def test_growth_is_relative_first_to_last_day(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_tsdb_points", [100.0, 150.0, 110.0])
        verdict = ledger.ledger_flatness(tsdb)
        assert verdict["max_growth"] == pytest.approx(0.1)

    def test_monotone_counters_are_exempt(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_tsdb_compactions", [10.0, 20.0, 30.0])
        verdict = ledger.ledger_flatness(tsdb)
        assert verdict["max_growth"] == 0.0
        assert not verdict["series"]["obs_ledger_tsdb_compactions"]["gated"]

    def test_saturating_deques_are_exempt(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_recorder_contexts", [2.0, 30.0, 60.0])
        verdict = ledger.ledger_flatness(tsdb)
        assert verdict["max_growth"] == 0.0

    def test_single_day_cannot_gate(self):
        tsdb = TimeSeriesDB()
        tsdb.append("obs_ledger_tsdb_points", None, 10.0, 5.0)
        verdict = ledger.ledger_flatness(tsdb)
        assert not verdict["series"]["obs_ledger_tsdb_points"]["gated"]

    def test_growth_from_zero_reports_none(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_tsdb_points", [0.0, 0.0, 5.0])
        verdict = ledger.ledger_flatness(tsdb)
        entry = verdict["series"]["obs_ledger_tsdb_points"]
        assert entry["growth"] is None
        assert verdict["max_growth"] is None

    def test_labeled_series_gate_by_base_name(self):
        tsdb = TimeSeriesDB()
        self.feed(tsdb, "obs_ledger_tsdb_compactions", [10.0, 20.0],
                  days=2, labels={"store": "live"})
        verdict = ledger.ledger_flatness(tsdb)
        key = 'obs_ledger_tsdb_compactions{store="live"}'
        assert key in verdict["series"]
        assert not verdict["series"][key]["gated"]
