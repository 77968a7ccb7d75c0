"""The telemetry history store and its PromQL-lite query engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.syndog import SynDog
from repro.obs.alerts import builtin_rules
from repro.obs.events import EventLog, MemorySink
from repro.obs.merge import merge_tsdb_snapshots, tsdb_snapshot
from repro.obs.runtime import enabled_instrumentation
from repro.obs.tsdb import (
    NullTSDB,
    QueryError,
    TimeSeriesDB,
    parse_duration,
    parse_query,
    tsdb_from_events,
)


def feed(tsdb, name, samples, labels=None):
    for t, value in samples:
        tsdb.append(name, labels, t, value)


class TestStore:
    def test_series_keyed_by_name_and_labels(self):
        tsdb = TimeSeriesDB()
        tsdb.append("y", {"agent": "a"}, 20.0, 1.0)
        tsdb.append("y", {"agent": "b"}, 20.0, 2.0)
        tsdb.append("y", {"agent": "a"}, 40.0, 3.0)
        assert len(tsdb) == 2
        (series_a, series_b) = tsdb.series("y")
        assert series_a.samples == [(20.0, 1.0), (40.0, 3.0)]
        assert series_b.samples == [(20.0, 2.0)]
        assert tsdb.names() == ["y"]
        assert tsdb.last_time() == 40.0

    def test_watermarks_are_distinct_sorted_times(self):
        tsdb = TimeSeriesDB()
        feed(tsdb, "a", [(40.0, 1.0), (20.0, 1.0)])
        feed(tsdb, "b", [(20.0, 2.0), (60.0, 2.0)])
        assert tsdb.watermarks() == [20.0, 40.0, 60.0]

    def test_retention_triggers_deterministic_compaction(self):
        tsdb = TimeSeriesDB(retention=8)
        feed(tsdb, "y", [(float(i), float(i)) for i in range(9)])
        (series,) = tsdb.series("y")
        assert series.compactions == 1
        # Stride-2 over the oldest half [0..3]: keep 0, 2; tail intact.
        assert [t for t, _ in series.samples] == [
            0.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0,
        ]

    def test_compaction_is_reproducible(self):
        def build():
            tsdb = TimeSeriesDB(retention=16)
            feed(tsdb, "y", [(float(i), float(i % 7)) for i in range(100)])
            return tsdb.to_dict()

        assert build() == build()

    def test_minimum_retention_enforced(self):
        with pytest.raises(ValueError):
            TimeSeriesDB(retention=4)

    def test_null_tsdb_absorbs_everything(self):
        null = NullTSDB()
        null.append("y", None, 1.0, 2.0)
        null.tick(1.0)
        assert len(null) == 0
        assert null.query("y") == []
        assert null.watermarks() == []
        assert not null.enabled


class TestTicks:
    def test_tick_snapshots_registry_and_event_stats(self):
        obs = enabled_instrumentation()
        obs.registry.counter("widgets_total", "help").inc(3)
        obs.events.emit("ping")
        obs.tsdb.tick(20.0)
        names = obs.tsdb.names()
        assert "widgets_total" in names
        assert "obs_events_emitted_total" in names
        (widgets,) = obs.tsdb.series("widgets_total")
        assert widgets.source == "registry"
        (emitted,) = obs.tsdb.series("obs_events_emitted_total")
        assert emitted.source == "feed"
        assert emitted.samples == [(20.0, 1.0)]

    def test_tick_watermark_ignores_rewinds(self):
        obs = enabled_instrumentation()
        obs.events.emit("ping")
        obs.tsdb.tick(40.0)
        obs.tsdb.tick(20.0)  # replayed earlier logical time: ignored
        (emitted,) = obs.tsdb.series("obs_events_emitted_total")
        assert [t for t, _ in emitted.samples] == [40.0]

    def test_tick_events_skips_registry(self):
        tsdb = TimeSeriesDB()
        events = EventLog(MemorySink())
        events.emit("ping")
        tsdb.bind(events=events)
        tsdb.tick_events(20.0)
        assert tsdb.names() == [
            "obs_events_dropped_total", "obs_events_emitted_total",
        ]

    def test_snapshots_disabled_makes_ticks_noops(self):
        tsdb = TimeSeriesDB(record_snapshots=False)
        events = EventLog(MemorySink())
        events.emit("ping")
        tsdb.bind(events=events)
        tsdb.tick(20.0)
        tsdb.tick_events(20.0)
        assert len(tsdb) == 0

    def test_canonical_projection_excludes_registry_series(self):
        obs = enabled_instrumentation()
        obs.registry.counter("widgets_total", "help").inc()
        obs.events.emit("ping")
        obs.tsdb.tick(20.0)
        names = {entry["name"] for entry in tsdb_snapshot(obs.tsdb)["series"]}
        assert "widgets_total" not in names
        assert "obs_events_emitted_total" in names


class TestDetectorFeed:
    def test_syndog_feeds_per_period_series(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)
        for name in (
            "syndog_delta", "syndog_x_n", "syndog_cusum",
            "syndog_alarm_active", "syndog_degraded",
        ):
            (series,) = obs.tsdb.series(name)
            assert series.labels == (("agent", "router-a"),)
            assert len(series.samples) == 13
        (cusum,) = obs.tsdb.series("syndog_cusum")
        assert cusum.samples[-1][1] > 1.05
        (alarm,) = obs.tsdb.series("syndog_alarm_active")
        assert alarm.samples[-1][1] == 1.0

    def test_disabled_bundle_records_nothing(self):
        dog = SynDog(name="router-a")
        dog.observe_period(100, 100)
        assert dog._tsdb is None


class TestQueryParsing:
    def test_bare_selector(self):
        query = parse_query("syndog_cusum")
        assert query.func is None and query.cmp is None

    def test_full_grammar(self):
        query = parse_query(
            'max_over_time(syndog_cusum{agent="a",shard!="9"}[5m])'
            " > 0.8 * 1.05"
        )
        assert query.func == "max_over_time"
        assert query.duration == 300.0
        assert query.cmp == ">"
        assert query.threshold == pytest.approx(0.84)

    def test_durations(self):
        assert parse_duration("30") == 30.0
        assert parse_duration("30s") == 30.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("1h") == 3600.0

    @pytest.mark.parametrize("expr", [
        "",
        "   ",
        "((",
        "rate(syndog_cusum)",          # missing range
        "rate(syndog_cusum[5m]",       # unclosed call
        "syndog_cusum{agent=~\"a\"}",  # unsupported matcher
        "syndog_cusum > ",             # dangling comparison
        "syndog_cusum 5",              # trailing tokens
        "bogus_func(syndog_cusum[5m])",
    ])
    def test_malformed_expressions_raise(self, expr):
        with pytest.raises(QueryError):
            parse_query(expr)


class TestQueryEvaluation:
    def build(self):
        tsdb = TimeSeriesDB()
        feed(tsdb, "y", [(20.0 * i, float(i)) for i in range(1, 6)],
             labels={"agent": "a"})
        feed(tsdb, "y", [(20.0 * i, 10.0 * i) for i in range(1, 6)],
             labels={"agent": "b"})
        return tsdb

    def test_instant_selector_defaults_to_last_time(self):
        tsdb = self.build()
        result = tsdb.query("y")
        assert result == [
            {"labels": {"agent": "a"}, "value": 5.0},
            {"labels": {"agent": "b"}, "value": 50.0},
        ]

    def test_label_matchers_filter_series(self):
        tsdb = self.build()
        assert tsdb.query('y{agent="a"}') == [
            {"labels": {"agent": "a"}, "value": 5.0}
        ]
        assert tsdb.query('y{agent!="a"}') == [
            {"labels": {"agent": "b"}, "value": 50.0}
        ]

    def test_staleness_hides_dead_series(self):
        tsdb = TimeSeriesDB(staleness=100.0)
        feed(tsdb, "y", [(20.0, 1.0)])
        assert tsdb.query("y", at=100.0) != []
        assert tsdb.query("y", at=500.0) == []

    def test_range_functions(self):
        tsdb = self.build()
        at = 100.0
        value = lambda expr: {
            tuple(entry["labels"].items()): entry["value"]
            for entry in tsdb.query(expr, at=at)
        }[(("agent", "a"),)]
        assert value("max_over_time(y[100s])") == 5.0
        assert value("min_over_time(y[100s])") == 1.0
        assert value("sum_over_time(y[100s])") == 15.0
        assert value("avg_over_time(y[100s])") == 3.0
        assert value("count_over_time(y[100s])") == 5.0
        assert value("last_over_time(y[100s])") == 5.0
        assert value("increase(y[100s])") == 4.0
        assert value("rate(y[100s])") == pytest.approx(4.0 / 80.0)

    def test_comparison_filters_vector(self):
        tsdb = self.build()
        assert tsdb.query("y > 3 * 2") == [
            {"labels": {"agent": "b"}, "value": 50.0}
        ]
        assert tsdb.query("y > 100") == []

    def test_window_excludes_left_edge(self):
        tsdb = TimeSeriesDB()
        feed(tsdb, "y", [(0.0, 100.0), (20.0, 1.0), (40.0, 2.0)])
        (result,) = tsdb.query("max_over_time(y[40s])", at=40.0)
        assert result["value"] == 2.0

    def test_empty_store_evaluates_empty(self):
        assert TimeSeriesDB().query("y") == []


class TestOfflineReconstruction:
    def test_tsdb_from_events_round_trips_detector_series(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)
        sink = obs.memory_events()
        rebuilt = tsdb_from_events(sink.events)
        for name in ("syndog_delta", "syndog_x_n", "syndog_cusum",
                     "syndog_alarm_active", "syndog_degraded"):
            (live,) = obs.tsdb.series(name)
            (offline,) = rebuilt.series(name)
            assert offline.samples == live.samples
        # The emitted watermark is rebuilt from event seq numbers.
        (live_emitted,) = obs.tsdb.series("obs_events_emitted_total")
        (rebuilt_emitted,) = rebuilt.series("obs_events_emitted_total")
        assert rebuilt_emitted.samples == live_emitted.samples
        # The whole canonical store round-trips, except drop counts: what
        # was dropped is exactly what the JSONL file does not hold.
        live = tsdb_snapshot(obs.tsdb)
        live["series"] = [
            series for series in live["series"]
            if series["name"] != "obs_events_dropped_total"
        ]
        assert tsdb_snapshot(rebuilt) == live

    def test_non_period_events_are_ignored(self):
        rebuilt = tsdb_from_events([{"event": "alarm", "time": 20.0}])
        assert len(rebuilt) == 0


class TestMerge:
    def test_merge_reconstructs_interleaved_history(self):
        whole = TimeSeriesDB()
        feed(whole, "y", [(20.0 * i, float(i)) for i in range(1, 9)])

        shard_a, shard_b = TimeSeriesDB(), TimeSeriesDB()
        feed(shard_a, "y", [(20.0 * i, float(i)) for i in range(1, 9, 2)])
        feed(shard_b, "y", [(20.0 * i, float(i)) for i in range(2, 9, 2)])
        merged = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_a.to_dict(), shard_b.to_dict()]
        )
        assert tsdb_snapshot(merged) == tsdb_snapshot(whole)

    def test_merge_disjoint_agent_label_sets_unions_series(self):
        # Two shards that each own different agents: the merge is the
        # union, sample-exact, and no shard's series leaks into
        # another's label set.
        shard_a, shard_b = TimeSeriesDB(), TimeSeriesDB()
        feed(shard_a, "syndog_cusum", [(20.0, 0.1), (40.0, 0.2)],
             labels={"agent": "a1"})
        feed(shard_a, "syndog_cusum", [(20.0, 0.3)], labels={"agent": "a2"})
        feed(shard_b, "syndog_cusum", [(20.0, 0.7), (40.0, 1.1)],
             labels={"agent": "b1"})
        merged = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_a.to_dict(), shard_b.to_dict()]
        )
        by_agent = {
            dict(series.labels)["agent"]: series.samples
            for series in merged.series("syndog_cusum")
        }
        assert sorted(by_agent) == ["a1", "a2", "b1"]
        assert by_agent["a1"] == [(20.0, 0.1), (40.0, 0.2)]
        assert by_agent["a2"] == [(20.0, 0.3)]
        assert by_agent["b1"] == [(20.0, 0.7), (40.0, 1.1)]

    def test_merge_partially_overlapping_agent_label_sets(self):
        # One agent visible from both shards (handoff mid-run): its
        # series interleaves by time; agents unique to one shard come
        # through untouched.  Merge must equal the serial feed.
        whole = TimeSeriesDB()
        feed(whole, "syndog_cusum", [(20.0, 0.1), (40.0, 0.2), (60.0, 0.5)],
             labels={"agent": "shared"})
        feed(whole, "syndog_cusum", [(20.0, 0.9)], labels={"agent": "only-a"})
        feed(whole, "syndog_cusum", [(40.0, 1.3)], labels={"agent": "only-b"})

        shard_a, shard_b = TimeSeriesDB(), TimeSeriesDB()
        feed(shard_a, "syndog_cusum", [(20.0, 0.1), (40.0, 0.2)],
             labels={"agent": "shared"})
        feed(shard_a, "syndog_cusum", [(20.0, 0.9)], labels={"agent": "only-a"})
        feed(shard_b, "syndog_cusum", [(60.0, 0.5)], labels={"agent": "shared"})
        feed(shard_b, "syndog_cusum", [(40.0, 1.3)], labels={"agent": "only-b"})
        merged = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_a.to_dict(), shard_b.to_dict()]
        )
        assert tsdb_snapshot(merged) == tsdb_snapshot(whole)
        # And merge order across shards does not change the outcome
        # when sample times are distinct.
        flipped = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_b.to_dict(), shard_a.to_dict()]
        )
        assert tsdb_snapshot(flipped) == tsdb_snapshot(whole)

    def test_merge_order_breaks_ties_deterministically(self):
        shard_a, shard_b = TimeSeriesDB(), TimeSeriesDB()
        shard_a.append("y", None, 20.0, 1.0)
        shard_b.append("y", None, 20.0, 2.0)
        first = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_a.to_dict(), shard_b.to_dict()]
        )
        second = merge_tsdb_snapshots(
            TimeSeriesDB(), [shard_a.to_dict(), shard_b.to_dict()]
        )
        assert first.to_dict() == second.to_dict()
        (series,) = first.series("y")
        assert series.samples == [(20.0, 1.0), (20.0, 2.0)]


# ----------------------------------------------------------------------
# Differential suite: bisected windows against the reference filter
# ----------------------------------------------------------------------
RANGE_FUNCS = (
    "rate", "increase", "avg_over_time", "max_over_time", "min_over_time",
    "sum_over_time", "count_over_time", "last_over_time",
)

#: The range functions, written out again from their definitions.
REFERENCE_FUNCS = {
    "rate": lambda w: (
        (w[-1][1] - w[0][1]) / (w[-1][0] - w[0][0])
        if len(w) >= 2 and w[-1][0] > w[0][0] else None
    ),
    "increase": lambda w: w[-1][1] - w[0][1] if len(w) >= 2 else None,
    "avg_over_time": lambda w: (
        sum(v for _, v in w) / len(w) if w else None
    ),
    "max_over_time": lambda w: max(v for _, v in w) if w else None,
    "min_over_time": lambda w: min(v for _, v in w) if w else None,
    "sum_over_time": lambda w: sum(v for _, v in w) if w else None,
    "count_over_time": lambda w: float(len(w)) if w else None,
    "last_over_time": lambda w: w[-1][1] if w else None,
}

SERIES_KINDS = (
    "ordered", "duplicates", "out_of_order", "compacted", "merged",
)

# A 5 s grid, so window edges land exactly on sample times.
grid_times = st.integers(min_value=0, max_value=120).map(lambda i: 5.0 * i)
sample_lists = st.lists(
    st.tuples(grid_times, st.integers(-50, 50).map(float)), max_size=40,
)
query_times = st.one_of(
    st.integers(min_value=-4, max_value=130).map(lambda i: 5.0 * i),
    st.floats(min_value=-20.0, max_value=650.0, allow_nan=False),
)
durations = st.integers(min_value=0, max_value=300)


def build_series(kind, samples, shards):
    """A store holding one series ``y`` of the given kind."""
    by_time = sorted(samples, key=lambda sample: sample[0])
    tsdb = TimeSeriesDB(retention=8 if kind == "compacted" else 4096,
                        staleness=60.0)
    if kind == "ordered":
        feed(tsdb, "y", sorted(dict(samples).items()))
    elif kind in ("duplicates", "compacted"):
        feed(tsdb, "y", sorted(by_time + by_time[::2], key=lambda s: s[0]))
    elif kind == "out_of_order":
        feed(tsdb, "y", samples)
    else:
        parts = [TimeSeriesDB() for _ in range(shards)]
        for index, (t, value) in enumerate(samples):
            parts[index % shards].append("y", None, t, value)
        merge_tsdb_snapshots(tsdb, [part.to_dict() for part in parts])
    found = tsdb.series("y")
    return tsdb, (found[0] if found else None)


def reference_window(series, at, duration):
    return [s for s in series.samples if at - duration < s[0] <= at]


def reference_latest(series, at, staleness):
    candidates = [s for s in series.samples if s[0] <= at]
    if candidates and candidates[-1][0] > at - staleness:
        return candidates[-1]
    return None


class TestBisectedWindowDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(SERIES_KINDS), samples=sample_lists,
        shards=st.integers(min_value=1, max_value=3),
        at=query_times, duration=durations,
    )
    def test_window_and_latest_match_reference(
        self, kind, samples, shards, at, duration
    ):
        tsdb, series = build_series(kind, samples, shards)
        if series is None:
            return
        times = [t for t, _ in series.samples]
        if series.ordered:
            assert times == sorted(times)
        if kind in ("ordered", "duplicates", "compacted", "merged"):
            assert series.ordered
        if kind == "compacted" and len(samples) > 8:
            assert series.compactions >= 1
        assert list(zip(*series.window(at, float(duration)))) == (
            reference_window(series, at, float(duration))
        )
        assert series.latest(at, tsdb.staleness) == reference_latest(
            series, at, tsdb.staleness
        )

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(SERIES_KINDS), samples=sample_lists,
        shards=st.integers(min_value=1, max_value=3),
        at=query_times, duration=durations,
        func=st.sampled_from(RANGE_FUNCS + (None,)),
        comparison=st.sampled_from(("", " > 0", " <= 10")),
    )
    def test_query_matches_reference(
        self, kind, samples, shards, at, duration, func, comparison
    ):
        tsdb, series = build_series(kind, samples, shards)
        if func is None:
            expr = "y" + comparison
        else:
            expr = f"{func}(y[{duration}s])" + comparison
        got = tsdb.query(parse_query(expr), at)
        if series is None:
            assert got == []
            return
        if func is None:
            sample = reference_latest(series, at, tsdb.staleness)
            value = None if sample is None else sample[1]
        else:
            value = REFERENCE_FUNCS[func](
                reference_window(series, at, float(duration))
            )
        keep = value is not None and (
            comparison == ""
            or (comparison == " > 0" and value > 0)
            or (comparison == " <= 10" and value <= 10)
        )
        assert got == ([{"labels": {}, "value": value}] if keep else [])

    def test_out_of_order_append_falls_back_to_a_scan(self):
        tsdb = TimeSeriesDB()
        feed(tsdb, "y", [(20.0, 1.0), (60.0, 3.0), (40.0, 2.0)])
        (series,) = tsdb.series("y")
        assert not series.ordered
        assert series.window(60.0, 30.0) == ([60.0, 40.0], [3.0, 2.0])
        merged = merge_tsdb_snapshots(TimeSeriesDB(), [tsdb.to_dict()])
        (restored,) = merged.series("y")
        assert restored.ordered
        assert restored.window(60.0, 30.0) == ([40.0, 60.0], [2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(
        creations=st.lists(
            st.tuples(st.sampled_from("abc"),
                      st.sampled_from(("", "x", "y", "z"))),
            max_size=30,
        ),
        via_merge=st.booleans(),
    )
    def test_per_name_index_keeps_label_order(self, creations, via_merge):
        source = TimeSeriesDB()
        for name, agent in creations:
            source.append(name, {"agent": agent} if agent else None, 1.0, 1.0)
        tsdb = source
        if via_merge:
            tsdb = merge_tsdb_snapshots(TimeSeriesDB(), [source.to_dict()])
        keys = sorted({
            (name, (("agent", agent),) if agent else ())
            for name, agent in creations
        })
        assert [(s.name, s.labels) for s in tsdb.series()] == keys
        for name in "abc":
            assert [(s.name, s.labels) for s in tsdb.series(name)] == [
                key for key in keys if key[0] == name
            ]


class TupleRing:
    """The store's series as one list of ``(t, v)`` tuples: the model
    the two-column :class:`~repro.obs.tsdb.Series` must match."""

    def __init__(self, retention):
        self.retention = retention
        self.samples = []
        self.ordered = True
        self.compactions = 0

    def append(self, t, value):
        if self.samples and not t >= self.samples[-1][0]:
            self.ordered = False
        self.samples.append((float(t), float(value)))
        if len(self.samples) > self.retention:
            half = len(self.samples) // 2
            self.samples = self.samples[0:half:2] + self.samples[half:]
            self.compactions += 1

    def merge(self, samples):
        for t, value in samples:
            self.append(t, value)
        self.samples.sort(key=lambda sample: sample[0])
        self.ordered = True


operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), grid_times, st.integers(-50, 50)),
        st.tuples(st.just("merge"), sample_lists),
    ),
    min_size=1, max_size=40,
)


class TestColumnarSeries:
    @settings(max_examples=200, deadline=None)
    @given(ops=operations, retention=st.sampled_from((8, 9, 16)))
    def test_columns_match_a_tuple_ring(self, ops, retention):
        tsdb = TimeSeriesDB(retention=retention)
        model = TupleRing(retention)
        for op in ops:
            if op[0] == "append":
                tsdb.append("y", None, op[1], op[2])
                model.append(op[1], op[2])
            else:
                tsdb.merge_from({"series": [{
                    "name": "y", "labels": [],
                    "samples": [list(sample) for sample in op[1]],
                }]})
                model.merge(op[1])
            (series,) = tsdb.series("y")
            assert series.times == [t for t, _ in model.samples]
            assert series.values == [v for _, v in model.samples]
            assert series.samples == model.samples
            assert series.ordered == model.ordered
            assert series.compactions == model.compactions
            assert tsdb.points_retained() == len(model.samples)

    def test_enabled_bundle_records_equal_a_bare_detector(self):
        counts = [(100 + 7 * (i % 5), 100) for i in range(300)]
        counts[200:] = [(syn + 400, synack) for syn, synack in counts[200:]]
        bare = SynDog(name="dog").observe_counts(counts)
        obs = enabled_instrumentation(
            tsdb_retention=16, alert_rules=builtin_rules()
        )
        live = SynDog(obs=obs, name="dog").observe_counts(counts)
        assert live.alarmed
        assert live == bare
