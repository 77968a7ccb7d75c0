"""The declarative alert-rules layer: lifecycle, replay, builtins."""

import json

import pytest

from repro.core.syndog import SynDog
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    builtin_rules,
    fleet_rules,
    replay_rules,
    rules_from_dicts,
    rules_from_file,
)
from repro.obs.events import EventLog, MemorySink
from repro.obs.runtime import enabled_instrumentation
from repro.obs.slo import SLOEngine
from repro.obs.tsdb import TimeSeriesDB


def tsdb_with(samples, name="y"):
    tsdb = TimeSeriesDB()
    for t, value in samples:
        tsdb.append(name, None, t, value)
    return tsdb


class TestAlertRule:
    def test_malformed_expression_fails_at_construction(self):
        with pytest.raises(ValueError):
            AlertRule("bad", "((")

    def test_for_periods_must_be_positive(self):
        with pytest.raises(ValueError):
            AlertRule("bad", "y > 1", for_periods=0)

    def test_round_trips_through_dicts(self):
        rule = AlertRule("r", "y > 1", for_periods=3, severity="page",
                         description="d")
        clone = AlertRule.from_dict(rule.to_dict())
        assert clone.to_dict() == rule.to_dict()

    def test_from_dict_accepts_for_alias(self):
        rule = AlertRule.from_dict({"name": "r", "expr": "y > 1", "for": 2})
        assert rule.for_periods == 2


class TestLifecycle:
    def test_pending_then_firing_then_resolved(self):
        tsdb = tsdb_with([(20.0, 0.0), (40.0, 5.0), (60.0, 5.0),
                          (80.0, 0.0)])
        manager = AlertManager(
            rules=[AlertRule("r", "y > 1", for_periods=2)], tsdb=tsdb
        )
        for t in (20.0, 40.0, 60.0, 80.0):
            manager.evaluate(t)
        assert [(tr["to"], tr["t"]) for tr in manager.transitions] == [
            ("pending", 40.0), ("firing", 60.0), ("resolved", 80.0),
        ]
        state = manager.to_dict()["states"]["r"]
        assert state["fired_count"] == 1
        assert state["resolved_count"] == 1
        assert state["state"] == "inactive"

    def test_for_periods_one_fires_immediately(self):
        tsdb = tsdb_with([(20.0, 5.0)])
        manager = AlertManager(rules=[AlertRule("r", "y > 1")], tsdb=tsdb)
        manager.evaluate(20.0)
        assert manager.firing() == ["r"]

    def test_pending_cancelled_when_condition_clears(self):
        tsdb = tsdb_with([(20.0, 5.0), (40.0, 0.0)])
        manager = AlertManager(
            rules=[AlertRule("r", "y > 1", for_periods=3)], tsdb=tsdb
        )
        manager.evaluate(20.0)
        manager.evaluate(40.0)
        assert [tr["to"] for tr in manager.transitions] == [
            "pending", "cancelled",
        ]
        # The consecutive streak resets: a later single true period
        # only re-pends.
        tsdb.append("y", None, 60.0, 5.0)
        manager.evaluate(60.0)
        assert manager.pending() == ["r"]

    def test_duplicate_and_rewinding_watermarks_ignored(self):
        tsdb = tsdb_with([(20.0, 5.0), (40.0, 5.0)])
        manager = AlertManager(rules=[AlertRule("r", "y > 1")], tsdb=tsdb)
        manager.evaluate(40.0)
        assert manager.evaluate(40.0) == []
        assert manager.evaluate(20.0) == []
        assert manager.evaluations == 1

    def test_close_resolves_firing_and_cancels_pending(self):
        tsdb = tsdb_with([(20.0, 5.0)])
        firing_rule = AlertRule("f", "y > 1")
        pending_rule = AlertRule("p", "y > 1", for_periods=5)
        manager = AlertManager(rules=[firing_rule, pending_rule], tsdb=tsdb)
        manager.evaluate(20.0)
        produced = manager.close()
        assert {(tr["rule"], tr["to"]) for tr in produced} == {
            ("f", "resolved"), ("p", "cancelled"),
        }
        assert manager.closed
        assert manager.close() == []  # idempotent
        assert manager.evaluate(40.0) == []  # closed managers are inert

    def test_duplicate_rule_names_rejected(self):
        manager = AlertManager(rules=[AlertRule("r", "y > 1")])
        with pytest.raises(ValueError):
            manager.add_rule(AlertRule("r", "y > 2"))


class TestEventsAndContext:
    def test_transitions_emit_alert_events(self):
        tsdb = tsdb_with([(20.0, 5.0), (40.0, 0.0)])
        sink = MemorySink()
        manager = AlertManager(
            rules=[AlertRule("r", "y > 1", severity="page")],
            tsdb=tsdb, events=EventLog(sink),
        )
        manager.evaluate(20.0)
        manager.evaluate(40.0)
        kinds = [(e["event"], e["rule"], e["to"]) for e in sink.events]
        assert kinds == [
            ("alert", "r", "firing"), ("alert", "r", "resolved"),
        ]
        assert sink.events[0]["severity"] == "page"
        assert sink.events[0]["expr"] == "y > 1"

    def test_firing_captures_flight_recorder_context(self):
        obs = enabled_instrumentation(
            alert_rules=[AlertRule("alarm_on", "syndog_alarm_active > 0")]
        )
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)
        (context,) = obs.alerts.contexts
        assert context["rule"] == "alarm_on"
        assert "router-a" in context["status"]
        assert context["windows"]["router-a"]


class TestLiveWiring:
    def test_detector_drives_live_evaluation(self):
        obs = enabled_instrumentation(
            alert_rules=[AlertRule("hot", "syndog_cusum > 1.05")]
        )
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        assert obs.alerts.evaluations == 12
        assert obs.alerts.firing() == []
        dog.observe_period(5000, 100)
        assert obs.alerts.firing() == ["hot"]
        assert obs.summary()["alerts_firing"] == ["hot"]

    def test_finalize_closes_alerts_into_the_event_log(self):
        obs = enabled_instrumentation(
            alert_rules=[AlertRule("hot", "syndog_cusum > 1.05")]
        )
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)
        sink = obs.memory_events()
        obs.finalize()
        assert obs.alerts.closed
        resolutions = [
            e for e in sink.events
            if e["event"] == "alert" and e["to"] == "resolved"
        ]
        assert len(resolutions) == 1


class TestRuleLoading:
    def test_rules_from_dicts(self):
        rules = rules_from_dicts([{"name": "r", "expr": "y > 1"}])
        assert rules[0].name == "r"

    def test_rules_from_file_accepts_list_and_wrapper(self, tmp_path):
        entries = [{"name": "r", "expr": "y > 1", "for_periods": 2}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(entries), encoding="utf-8")
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"rules": entries}), encoding="utf-8")
        for path in (bare, wrapped):
            (rule,) = rules_from_file(path)
            assert (rule.name, rule.for_periods) == ("r", 2)

    def test_rules_from_file_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"nope"', encoding="utf-8")
        with pytest.raises(ValueError):
            rules_from_file(path)


class TestBuiltinsAndReplay:
    def test_builtin_rules_parse_and_cover_known_failure_modes(self):
        rules = builtin_rules(threshold=1.05)
        names = {rule.name for rule in rules}
        assert names == {
            "cusum_near_threshold", "events_dropping", "degraded_periods",
            "worker_crashes", "worker_retries",
            "fleet_quorum_low", "fleet_alarm_fraction_high",
            "fleet_cusum_p99_near_threshold",
        }

    def test_builtin_rules_without_fleet_are_the_core_set(self):
        rules = builtin_rules(threshold=1.05)
        fleet = fleet_rules(1.05)
        core = rules[:-len(fleet)]
        assert [rule.to_dict() for rule in rules[len(core):]] == [
            rule.to_dict() for rule in fleet
        ]
        assert {rule.name for rule in core} == {
            "cusum_near_threshold", "events_dropping", "degraded_periods",
            "worker_crashes", "worker_retries",
        }

    def test_builtin_near_threshold_watermark_scales_with_n(self):
        (near,) = [
            r for r in builtin_rules(threshold=2.0)
            if r.name == "cusum_near_threshold"
        ]
        assert "0.8 * 2.0" in near.expr

    def test_replay_walks_watermarks_and_closes(self):
        tsdb = tsdb_with(
            [(20.0, 0.0), (40.0, 5.0), (60.0, 5.0), (80.0, 0.0)]
        )
        manager = replay_rules(
            [AlertRule("r", "y > 1", for_periods=2)], tsdb
        )
        assert manager.closed
        assert [(tr["to"], tr["t"]) for tr in manager.transitions] == [
            ("pending", 40.0), ("firing", 60.0), ("resolved", 80.0),
        ]

    def test_replay_matches_live_evaluation(self):
        """The canonical-document property: replaying a live run's
        store reproduces the live transition history exactly."""
        rules = [AlertRule("hot", "syndog_cusum > 1.05")]
        obs = enabled_instrumentation(alert_rules=rules)
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(12):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)
        for _ in range(3):
            dog.observe_period(100, 100)
        obs.finalize()
        replayed = replay_rules(
            [AlertRule("hot", "syndog_cusum > 1.05")], obs.tsdb
        )
        assert replayed.to_dict() == obs.alerts.to_dict()

    def test_replay_is_deterministic(self):
        tsdb = tsdb_with([(20.0 * i, float(i % 5)) for i in range(1, 40)])
        docs = [
            replay_rules([AlertRule("r", "y > 2", for_periods=2)], tsdb)
            .to_dict()
            for _ in range(2)
        ]
        assert docs[0] == docs[1]


class TestCompileOnce:
    """Rules and SLO expressions are parsed at construction only."""

    @pytest.fixture
    def store(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs, name="router-a")
        for index in range(500):
            record = dog.observe_period(5000 if index == 400 else 100, 100)
            obs.tsdb.append("soak_false_alarm", None, record.end_time, 0.0)
        return obs.tsdb

    @staticmethod
    def count_tokenize(monkeypatch):
        import repro.obs.tsdb as tsdb_module

        calls = []
        original = tsdb_module._tokenize

        def counting(expr):
            calls.append(expr)
            return original(expr)

        monkeypatch.setattr(tsdb_module, "_tokenize", counting)
        return calls

    def test_alert_evaluation_never_tokenizes(self, store, monkeypatch):
        manager = AlertManager(builtin_rules(slo=True), tsdb=store)
        calls = self.count_tokenize(monkeypatch)
        for t in store.watermarks()[:500]:
            manager.evaluate(t)
        assert manager.evaluations == 500
        assert manager.transitions  # the rules did real work
        assert calls == []
        store.query("syndog_cusum")  # the counter itself is live
        assert calls == ["syndog_cusum"]

    def test_slo_evaluation_never_tokenizes(self, store, monkeypatch):
        engine = SLOEngine()
        calls = self.count_tokenize(monkeypatch)
        documents = [
            engine.evaluate(store, at=t) for t in store.watermarks()[:500]
        ]
        assert documents[-1]["verdict"] != "no_data"
        assert calls == []

    def test_compiled_rules_survive_pickling(self, store):
        import pickle

        rules = builtin_rules(slo=True)
        copies = pickle.loads(pickle.dumps(rules))
        at = store.last_time()
        for rule, copy in zip(rules, copies):
            assert store.query(copy.query, at) == store.query(rule.query, at)
        # The store, not the query, caches selections: a rule already
        # evaluated through it pickles to the same bytes as a fresh one.
        assert pickle.dumps(rules) == pickle.dumps(builtin_rules(slo=True))
