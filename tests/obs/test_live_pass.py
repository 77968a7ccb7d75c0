"""The live alert pass and the one per-period append, held to the text
query path.

The live pass reads each rule through its compiled query, whose
selection the store caches until a series is added;
``TimeSeriesDB.query`` on the rule's text parses and selects afresh
every call.  At every period the two must agree — through retention compaction, out-of-order appends,
selectors over two agents, series that appear mid-run and duplicate
watermarks.

Standard library only (no numpy), so the no-numpy CI job runs it.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.syndog import SynDog
from repro.obs.alerts import AlertManager, AlertRule, builtin_rules
from repro.obs.events import EventLog, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Instrumentation, enabled_instrumentation
from repro.obs.tsdb import DETECTOR_SERIES, TimeSeriesDB

#: Rules over every range function, an instant selector, a series that
#: appears mid-run (``late``), and selectors matching both agents.
EXTRA_RULES = (
    ("late_rate", "rate(late[2m]) != 0"),
    ("late_instant", "late > 0"),
    ("late_max", "max_over_time(late[1m]) >= 0 - 100"),
    ("late_last", "last_over_time(late[3m]) < 0"),
    ("x_of_a", 'max_over_time(syndog_x_n{agent="a"}[1m]) > 0.5'),
    ("cusum_not_a", 'min_over_time(syndog_cusum{agent!="a"}[2m]) >= 0'),
    ("alarm_count", "count_over_time(syndog_alarm_active[2m]) > 3"),
    ("delta_avg", "avg_over_time(syndog_delta[1m]) > 0"),
    ("emitted", "increase(obs_events_emitted_total[1m]) > 0"),
    ("x_instant", "syndog_x_n"),
)


def oracle_rules():
    return builtin_rules() + [
        AlertRule(name, expr, for_periods=2) for name, expr in EXTRA_RULES
    ]


#: The range functions over a window's ``(t, v)`` samples, in storage
#: order — written out here as the reference the store must match.
REFERENCE_FUNCS = {
    "rate": lambda w: (
        (w[-1][1] - w[0][1]) / (w[-1][0] - w[0][0])
        if len(w) >= 2 and w[-1][0] > w[0][0] else None
    ),
    "increase": lambda w: w[-1][1] - w[0][1] if len(w) >= 2 else None,
    "avg_over_time": lambda w: sum(v for _, v in w) / len(w) if w else None,
    "max_over_time": lambda w: max(v for _, v in w) if w else None,
    "min_over_time": lambda w: min(v for _, v in w) if w else None,
    "sum_over_time": lambda w: sum(v for _, v in w) if w else None,
    "count_over_time": lambda w: float(len(w)) if w else None,
    "last_over_time": lambda w: w[-1][1] if w else None,
}

COMPARE = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "==": operator.eq, "!=": operator.ne,
}


def reference_peak(tsdb, query, at):
    """The query's peak at *at* from each series' ``samples`` list."""
    peak = None
    for series in tsdb.series(query.selector.name):
        labels = dict(series.labels)
        if not all(
            (labels.get(m.label) == m.value) == (m.op == "=")
            for m in query.selector.matchers
        ):
            continue
        samples = series.samples
        if query.func is None:
            kept = [(t, v) for t, v in samples if t <= at]
            value = (
                kept[-1][1]
                if kept and kept[-1][0] > at - tsdb.staleness else None
            )
        else:
            window = [
                (t, v) for t, v in samples if at - query.duration < t <= at
            ]
            value = REFERENCE_FUNCS[query.func](window)
        if value is None or (
            query.cmp is not None
            and not COMPARE[query.cmp](value, query.threshold)
        ):
            continue
        if peak is None or value > peak:
            peak = value
    return peak


class CheckedAlertManager(AlertManager):
    """After every accepted watermark, holds each rule's live peak to
    the peak of the text-path vector on the same store, and both to a
    reference evaluation over the series' samples."""

    checked = 0

    def evaluate(self, t):
        before = self._last_t
        produced = super().evaluate(t)
        if self._last_t == t and before != t:
            tsdb = self._tsdb
            live = {
                rule.name: tsdb.query(rule.query, t, True)
                for rule, _state in self._live
            }
            for rule in self._rules:
                vector = tsdb.query(rule.expr, t)
                expected = max(
                    (entry["value"] for entry in vector), default=None
                )
                assert live.get(rule.name) == expected, (rule.name, t)
                assert reference_peak(tsdb, rule.query, t) == expected, (
                    rule.name, t,
                )
                self.checked += 1
        return produced


def checked_bundle(retention=8):
    events = EventLog(MemorySink())
    return Instrumentation(
        registry=MetricsRegistry(),
        events=events,
        recorder=FlightRecorder(events=events),
        tsdb=TimeSeriesDB(retention=retention),
        alerts=CheckedAlertManager(rules=oracle_rules()),
    )


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("period"), st.sampled_from(("a", "b")),
            st.integers(min_value=0, max_value=3000),
            st.integers(min_value=0, max_value=300),
        ),
        st.tuples(st.just("missing"), st.sampled_from(("a", "b"))),
        st.tuples(
            st.just("late"), st.integers(min_value=-60, max_value=40),
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        ),
    ),
    max_size=60,
)


def run_ops(obs, steps):
    dogs = {name: SynDog(obs=obs, name=name) for name in ("a", "b")}
    for step in steps:
        if step[0] == "period":
            dogs[step[1]].observe_period(step[2], step[3])
        elif step[0] == "missing":
            dogs[step[1]].observe_missing_period()
        else:
            # A sample at an offset from the newest period: behind it
            # makes the series unordered.
            now = max(dog.summary.periods for dog in dogs.values()) * 20.0
            obs.tsdb.append("late", {"agent": "a"}, now + step[1], step[2])
    return dogs


class TestLivePeakOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=ops)
    def test_live_peak_equals_the_text_path(self, steps):
        obs = checked_bundle()
        run_ops(obs, steps)
        periods = sum(1 for step in steps if step[0] != "late")
        assert (obs.alerts.checked > 0) == (periods > 0)

    def test_the_fixed_scenario_covers_every_case(self):
        obs = checked_bundle()
        steps = (
            [("period", "a", 100, 100), ("period", "b", 100, 100)] * 6
            + [("late", 0, 1.0), ("period", "a", 3000, 100)]
            + [("late", -50, 2.0), ("period", "a", 100, 100)]
            + [("period", "b", 100, 100), ("missing", "b")] * 3
            + [("period", "a", 100, 100)] * 10
        )
        run_ops(obs, steps)
        tsdb = obs.tsdb
        (late,) = tsdb.series("late")
        assert not late.ordered
        assert tsdb.compactions_total > 0
        assert [dict(s.labels)["agent"] for s in tsdb.series("syndog_cusum")] \
            == ["a", "b"]
        # Agent b only ever closes end times agent a closed first:
        # duplicate watermarks, ignored, so a's 18 periods are the
        # evaluations.
        assert obs.alerts.evaluations == 18
        assert obs.alerts.checked == 18 * len(obs.alerts.rules)
        fired = {entry["rule"] for entry in obs.alerts.transitions}
        assert {"late_instant", "x_of_a", "emitted"} <= fired


class TestOneAppendPerPeriod:
    def test_a_clean_count_driven_period_appends_once(self, monkeypatch):
        obs = enabled_instrumentation(alert_rules=builtin_rules())
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(10):
            dog.observe_period(100, 100)
        calls = []
        append_at = TimeSeriesDB.append_at

        def counting(self, t, points):
            points = list(points)
            calls.append(len(points))
            return append_at(self, t, points)

        monkeypatch.setattr(TimeSeriesDB, "append_at", counting)
        before = obs.tsdb.samples_appended
        dog.observe_period(100, 100)
        assert calls == [12]
        assert obs.tsdb.samples_appended - before == 12

    def test_two_agents_closing_one_end_time_each_write_their_trajectory(
        self,
    ):
        obs = enabled_instrumentation()
        a = SynDog(obs=obs, name="a")
        b = SynDog(obs=obs, name="b")
        for _ in range(3):
            a.observe_period(100, 100)
            b.observe_period(200, 100)
        tsdb = obs.tsdb
        for name in DETECTOR_SERIES:
            assert [
                (dict(series.labels)["agent"], series.times)
                for series in tsdb.series(name)
            ] == [("a", [20.0, 40.0, 60.0]), ("b", [20.0, 40.0, 60.0])]
        # The pipeline snapshot is taken once per watermark.
        (emitted,) = tsdb.series("obs_events_emitted_total")
        assert emitted.times == [20.0, 40.0, 60.0]
        (delta_b,) = [
            series for series in tsdb.series("syndog_delta")
            if dict(series.labels)["agent"] == "b"
        ]
        assert delta_b.values == [100.0, 100.0, 100.0]
