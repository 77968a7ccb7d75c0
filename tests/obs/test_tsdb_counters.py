"""Retention-compaction telemetry on the time-series store itself."""

from repro.obs.tsdb import TimeSeriesDB


class TestCompactionCounters:
    def test_quiet_below_retention(self):
        tsdb = TimeSeriesDB(retention=16)
        for i in range(16):
            tsdb.append("y", None, float(i), 1.0)
        assert tsdb.compactions_total == 0
        assert tsdb.points_dropped_total == 0
        assert tsdb.points_retained() == 16

    def test_one_compaction_drops_a_quarter(self):
        tsdb = TimeSeriesDB(retention=16)
        for i in range(17):
            tsdb.append("y", None, float(i), 1.0)
        # Stride-2 compaction of the older half: len // 4 points go.
        assert tsdb.compactions_total == 1
        assert tsdb.points_dropped_total == 4
        assert tsdb.points_retained() == 13

    def test_counters_accumulate_over_a_long_feed(self):
        tsdb = TimeSeriesDB(retention=16)
        for i in range(40):
            tsdb.append("y", None, float(i), 1.0)
        assert tsdb.compactions_total == 6
        assert tsdb.points_dropped_total == 24
        assert tsdb.points_retained() <= 16

    def test_counters_accumulate_per_series(self):
        tsdb = TimeSeriesDB(retention=16)
        for i in range(17):
            tsdb.append("a", None, float(i), 1.0)
        for i in range(17):
            tsdb.append("b", None, float(i), 1.0)
        assert tsdb.compactions_total == 2
        assert tsdb.points_dropped_total == 8

    def test_merge_from_counts_its_compactions(self):
        source = TimeSeriesDB(retention=64)
        for i in range(20):
            source.append("y", None, float(i), 1.0)
        merged = TimeSeriesDB(retention=16)
        merged.merge_from(source.to_dict())
        assert merged.compactions_total >= 1
        assert merged.points_dropped_total >= 4
        assert merged.points_retained() <= 16

