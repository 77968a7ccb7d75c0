"""One series per fact: per-agent gauges, the series a period writes,
and an alert pass that reads only the rules whose series exist.

Standard library only (no numpy), so the no-numpy CI job runs it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.syndog import SynDog
from repro.obs import (
    enabled_instrumentation,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.alerts import AlertManager, AlertRule, builtin_rules
from repro.obs.tsdb import DETECTOR_SERIES, TimeSeriesDB, parse_query


def gauge_lines(text, name):
    return sorted(line for line in text.splitlines() if line.startswith(name + "{"))


class TestPerAgentGauges:
    def test_two_agents_on_one_bundle_each_export_their_own_value(self):
        obs = enabled_instrumentation()
        a = SynDog(obs=obs, name="a")
        b = SynDog(obs=obs, name="b")
        for _ in range(5):
            a.observe_period(100, 100)
            b.observe_period(100, 100)
        a.observe_period(5000, 100)  # flood only a: X_n ≈ 49 >> N
        b.observe_period(100, 100)   # b writes last
        assert a.alarm and not b.alarm
        text = render_prometheus(obs.registry)
        assert gauge_lines(text, "syndog_alarm") == [
            'syndog_alarm{agent="a"} 1', 'syndog_alarm{agent="b"} 0',
        ]
        statistics = {
            labels["agent"]: value
            for name, labels, value in parse_prometheus_text(text)
            if name == "syndog_statistic"
        }
        assert statistics == {"a": a.statistic, "b": b.statistic}
        assert a.statistic > 1.05 and b.statistic == 0.0


class TestSeriesPerPeriod:
    def test_a_clean_count_driven_period_writes_twelve_series(self):
        obs = enabled_instrumentation(alert_rules=builtin_rules())
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(10):
            dog.observe_period(100, 100)
        before = obs.tsdb.samples_appended
        dog.observe_period(100, 100)
        assert obs.tsdb.samples_appended - before == 12
        names = obs.tsdb.names()
        # 2 event stats, 5 registry snapshots, 5 trajectory series.
        assert len(obs.tsdb) == 12
        assert set(DETECTOR_SERIES) <= set(names)
        assert not {"syndog_statistic", "syndog_x", "syndog_alarm"} & set(names)
        families = [family.name for family in obs.registry.collect()]
        assert [
            name for name in families
            if name.startswith(("sniffer_", "exchange_"))
        ] == []


class UnskippedAlertManager(AlertManager):
    """The reference pass: every rule is evaluated every period,
    whether or not its selector matches a series."""

    def _bind_live(self, tsdb):
        super()._bind_live(tsdb)
        self._live = [(rule, self._states[rule.name]) for rule in self._rules]


def late_rules():
    return builtin_rules() + [
        AlertRule("quorum_late", "fleet_quorum < 0.9", for_periods=2),
    ]


class TestLiveRules:
    def test_a_rule_goes_live_in_the_period_its_first_series_appears(self):
        obs = enabled_instrumentation(alert_rules=late_rules())
        reference = UnskippedAlertManager(rules=late_rules(), tsdb=obs.tsdb)
        dog = SynDog(obs=obs, name="router-a")
        k = 17
        for index in range(60):
            end = 20.0 * (index + 1)
            if index == k:
                obs.tsdb.append("fleet_quorum", None, end, 0.5)
            dog.observe_period(100, 100)
            reference.evaluate(end)
        t_k = 20.0 * (k + 1)
        fleet = [
            (entry["rule"], entry["to"], entry["t"])
            for entry in obs.alerts.transitions
            if entry["rule"] in ("fleet_quorum_low", "quorum_late")
        ]
        assert fleet[:3] == [
            ("fleet_quorum_low", "firing", t_k),
            ("quorum_late", "pending", t_k),
            ("quorum_late", "firing", t_k + 20.0),
        ]
        assert obs.alerts.transitions == reference.transitions
        assert obs.alerts.to_dict() == reference.to_dict()

    def test_rules_without_series_are_not_queried(self, monkeypatch):
        obs = enabled_instrumentation(alert_rules=builtin_rules())
        dog = SynDog(obs=obs, name="router-a")
        dog.observe_period(100, 100)
        read = []
        query = TimeSeriesDB.query

        def counting_query(self, expr, *args):
            read.append(expr.expr)
            return query(self, expr, *args)

        monkeypatch.setattr(TimeSeriesDB, "query", counting_query)
        dog.observe_period(100, 100)
        # The fleet, worker and retry rules watch series a lone
        # count-driven detector never writes.
        assert sorted(read) == sorted(
            rule.expr for rule in obs.alerts.rules
            if rule.name in (
                "cusum_near_threshold", "events_dropping", "degraded_periods",
            )
        )


samples = st.lists(
    st.tuples(
        st.sampled_from(("a", "b", "c")),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    ),
    max_size=40,
)
queries = st.sampled_from((
    "y", "y > 0", "y <= 1.5", "max_over_time(y[1m])",
    "min_over_time(y[2m]) < 0", "rate(y[3m]) != 0", "sum_over_time(y[1m]) > 1",
    'avg_over_time(y{agent!="b"}[5m])', "increase(y[2m]) >= 0",
))


class TestPeak:
    @settings(max_examples=200, deadline=None)
    @given(points=samples, expr=queries, at=st.integers(min_value=0, max_value=32))
    def test_peak_is_the_largest_value_of_the_vector(self, points, expr, at):
        store = TimeSeriesDB()
        for agent, step, value in points:
            store.append("y", {"agent": agent}, 10.0 * step, value)
        query = parse_query(expr)
        selected = store.select(query)
        vector = store.query(query, at=10.0 * at)
        expected = max((entry["value"] for entry in vector), default=None)
        assert query.peak(selected, 10.0 * at, store.staleness) == expected
        assert store.query(query, at=10.0 * at, peak=True) == expected
