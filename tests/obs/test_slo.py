"""Declarative SLOs and multi-window burn-rate evaluation."""

import pytest

from repro.obs.alerts import AlertManager, builtin_rules
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    SLOEngine,
    SLOSpec,
    builtin_slos,
    slo_rules,
)
from repro.obs.tsdb import TimeSeriesDB


def spec_named(document, name):
    for entry in document["slos"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"no SLO {name!r} in document")


class TestSLOSpec:
    def test_budget_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=0.0, bad_exprs=("a",),
                    total_exprs=("b",))
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=1.0, bad_exprs=("a",),
                    total_exprs=("b",))

    def test_expression_lists_must_match(self):
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=0.1, bad_exprs=("a", "b"),
                    total_exprs=("c",))
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=0.1, bad_exprs=(), total_exprs=())

    def test_expressions_must_be_window_templates(self):
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=0.1, bad_exprs=("y",),
                    total_exprs=("count_over_time(y[{window}])",))
        with pytest.raises(ValueError):
            SLOSpec("s", "d", budget=0.1, bad_exprs=("sum_over_time(y[5m])",),
                    total_exprs=("count_over_time(y[{window}])",))

    def test_to_dict_is_plain_data(self):
        spec = builtin_slos()[0]
        doc = spec.to_dict()
        assert doc["name"] == "detection_latency"
        assert doc["windows"] == [list(pair) for pair in
                                  DEFAULT_BURN_WINDOWS]

    def test_duplicate_names_rejected_by_engine(self):
        spec = builtin_slos()[0]
        with pytest.raises(ValueError):
            SLOEngine([spec, spec])


class TestEvaluate:
    def test_empty_store_is_no_data(self):
        document = SLOEngine().evaluate(TimeSeriesDB())
        assert document["verdict"] == "no_data"
        assert document["at"] is None
        assert all(entry["verdict"] == "no_data"
                   for entry in document["slos"])

    def test_ok_when_nothing_bad(self):
        tsdb = TimeSeriesDB()
        for i in range(100):
            tsdb.append("soak_false_alarm", None, 20.0 * (i + 1), 0.0)
        entry = spec_named(SLOEngine().evaluate(tsdb), "false_alarm_budget")
        assert entry["verdict"] == "ok"
        assert entry["budget_consumed"] == 0.0
        assert entry["total"] == 100.0

    def test_exhausted_when_consumption_reaches_budget(self):
        # 3 bad of 100 against a 1% budget: consumed = 3.0 >= 1.
        tsdb = TimeSeriesDB()
        for i in range(100):
            value = 1.0 if i in (10, 50, 90) else 0.0
            tsdb.append("soak_false_alarm", None, 20.0 * (i + 1), value)
        entry = spec_named(SLOEngine().evaluate(tsdb), "false_alarm_budget")
        assert entry["verdict"] == "exhausted"
        assert entry["budget_consumed"] == pytest.approx(3.0)
        assert entry["bad"] == 3.0

    def test_burning_needs_both_windows_of_a_pair(self):
        # Bad samples concentrated in the recent past trip a short/long
        # pair, but total consumption stays under the budget: burning,
        # not exhausted.
        spec = SLOSpec(
            "recent", "bad stuff lately", budget=0.5,
            bad_exprs=("sum_over_time(y[{window}])",),
            total_exprs=("count_over_time(y[{window}])",),
            windows=((60.0, 120.0, 1.0),),
        )
        tsdb = TimeSeriesDB()
        for i in range(100):
            tsdb.append("y", None, 10.0 * (i + 1), 0.0)
        for i in range(12):
            tsdb.append("y", None, 1000.0 + 10.0 * (i + 1), 1.0)
        document = SLOEngine([spec]).evaluate(tsdb)
        entry = spec_named(document, "recent")
        assert entry["verdict"] == "burning"
        assert entry["windows"][0]["breached"] is True
        assert entry["budget_consumed"] < 1.0
        assert document["verdict"] == "burning"

    def test_candidate_fallback_uses_live_series(self):
        # No soak_false_alarm ground truth: the false-alarm objective
        # falls back to the live syndog_alarm_active series.
        tsdb = TimeSeriesDB()
        for i in range(50):
            tsdb.append("syndog_alarm_active", {"agent": "a"},
                        20.0 * (i + 1), 0.0)
        entry = spec_named(SLOEngine().evaluate(tsdb), "false_alarm_budget")
        assert entry["verdict"] == "ok"
        assert entry["total"] == 50.0

    def test_worst_verdict_wins_overall(self):
        tsdb = TimeSeriesDB()
        for i in range(10):
            tsdb.append("soak_detection_miss", None, 20.0 * (i + 1), 1.0)
        document = SLOEngine().evaluate(tsdb)
        assert spec_named(document, "detection_latency")["verdict"] == \
            "exhausted"
        assert document["verdict"] == "exhausted"


class TestRecordAndRules:
    def test_record_appends_indicator_series(self):
        tsdb = TimeSeriesDB()
        for i in range(100):
            value = 1.0 if i < 3 else 0.0
            tsdb.append("soak_false_alarm", None, 20.0 * (i + 1), value)
        SLOEngine().record(tsdb)
        burning = tsdb.query('slo_burning{slo="false_alarm_budget"}')
        consumed = tsdb.query(
            'slo_budget_consumed{slo="false_alarm_budget"}'
        )
        assert len(burning) == 1 and len(consumed) == 1
        assert consumed[0]["value"] == pytest.approx(3.0)

    def test_record_skips_no_data_objectives(self):
        tsdb = TimeSeriesDB()
        tsdb.append("soak_false_alarm", None, 20.0, 0.0)
        SLOEngine().record(tsdb)
        assert tsdb.query('slo_burning{slo="event_loss"}') == []

    def test_record_on_empty_store_is_a_noop(self):
        tsdb = TimeSeriesDB()
        document = SLOEngine().record(tsdb)
        assert document["verdict"] == "no_data"
        assert len(tsdb.series()) == 0

    def test_slo_rules_page_on_recorded_exhaustion(self):
        tsdb = TimeSeriesDB()
        for i in range(100):
            value = 1.0 if i < 5 else 0.0
            tsdb.append("soak_false_alarm", None, 20.0 * (i + 1), value)
        SLOEngine().record(tsdb)
        manager = AlertManager(rules=slo_rules(), tsdb=tsdb)
        manager.evaluate(tsdb.last_time())
        # Exhaustion pages, and the sustained overrun also trips the
        # slow (ticket) burn-window pair.
        assert "slo_false_alarm_budget_budget_exhausted" in manager.firing()
        assert "slo_false_alarm_budget_burn" in manager.firing()
        assert "slo_event_loss_budget_exhausted" not in manager.firing()

    def test_builtin_rules_gate_slo_rules_behind_flag(self):
        names_default = {rule.name for rule in builtin_rules()}
        names_slo = {rule.name for rule in builtin_rules(slo=True)}
        assert not any(name.startswith("slo_") for name in names_default)
        expected = {rule.name for rule in slo_rules()}
        assert expected <= names_slo
        # Two rules (burn + exhaustion) per builtin objective.
        assert len(expected) == 2 * len(builtin_slos())
