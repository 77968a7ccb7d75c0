"""The live telemetry server: /metrics, /healthz and /events over HTTP.

These tests scrape a *running* (not finalized) bundle — the whole point
of the server — by feeding the detector between requests.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.syndog import SynDog
from repro.obs import enabled_instrumentation, parse_prometheus_text
from repro.obs.events import EventLog, MemorySink
from repro.obs.runtime import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.server import ObsServer


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


@pytest.fixture
def live():
    obs = enabled_instrumentation(recorder_post_periods=2)
    server = ObsServer(obs)
    server.start()
    yield obs, server
    server.stop()


class TestMetricsEndpoint:
    def test_mid_run_scrape_round_trips(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(3):
            dog.observe_period(100, 100)
        status, headers, body = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = parse_prometheus_text(body.decode("utf-8"))
        as_map = {name: value for name, labels, value in samples}
        assert as_map["syndog_periods_total"] == 3.0
        # Scrape again mid-run: the counters moved — this is live state,
        # not a final export.
        dog.observe_period(100, 100)
        _, _, body = get(server.url + "/metrics")
        samples = parse_prometheus_text(body.decode("utf-8"))
        as_map = {name: value for name, labels, value in samples}
        assert as_map["syndog_periods_total"] == 4.0
        # Event-loss accounting is folded into every scrape.
        assert "obs_events_emitted_total" in as_map
        assert as_map["obs_events_dropped_total"] == 0.0

    def test_disabled_registry_scrape_is_503(self):
        obs = Instrumentation(events=EventLog(MemorySink()))
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/metrics")
            assert excinfo.value.code == 503


class TestHealthEndpoint:
    def test_health_reports_agents_and_alarm_state(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(11):
            dog.observe_period(100, 100)
        dog.observe_period(5000, 100)  # flood -> alarm
        status, _, body = get(server.url + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "alarming"  # honest, not hard-coded ok
        assert health["uptime_seconds"] >= 0.0
        assert health["periods_observed"] == 12
        assert health["alarms_active"] == 1
        agent = health["agents"]["router-a"]
        assert agent["alarm"] is True
        assert agent["periods"] == 12
        assert health["events_emitted"] == obs.events.events_emitted
        assert health["events_dropped"] == 0

    def test_quiet_run_is_ok(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(3):
            dog.observe_period(100, 100)
        health = json.loads(get(server.url + "/healthz")[2])
        assert health["status"] == "ok"
        assert health["alerts_firing"] == []
        assert health["alerts_pending"] == []

    def test_event_drops_degrade_health(self):
        obs = enabled_instrumentation(max_memory_events=2)
        with ObsServer(obs) as server:
            dog = SynDog(obs=obs, name="router-a")
            for _ in range(5):
                dog.observe_period(100, 100)
            health = json.loads(get(server.url + "/healthz")[2])
            assert health["status"] == "degraded"
            assert health["events_dropped"] > 0

    def test_degraded_periods_degrade_health(self):
        obs = enabled_instrumentation()
        with ObsServer(obs) as server:
            dog = SynDog(obs=obs, name="router-a")
            for _ in range(3):
                dog.observe_period(100, 100)
            dog.observe_missing_period()
            health = json.loads(get(server.url + "/healthz")[2])
            assert health["status"] == "degraded"
            assert health["degraded_periods"] == 1
            assert health["agents"]["router-a"]["degraded_periods"] == 1

    def test_firing_alert_is_alarming(self):
        from repro.obs.alerts import AlertRule

        obs = enabled_instrumentation(
            alert_rules=[AlertRule("wide_delta", "syndog_delta > 10")]
        )
        with ObsServer(obs) as server:
            dog = SynDog(obs=obs, name="router-a")
            for _ in range(3):
                dog.observe_period(100, 80)  # delta 20, no CUSUM alarm
            health = json.loads(get(server.url + "/healthz")[2])
            assert health["alarms_active"] == 0
            assert health["alerts_firing"] == ["wide_delta"]
            assert health["status"] == "alarming"


class TestEventsEndpoint:
    def test_tail_and_kind_filter(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(5):
            dog.observe_period(100, 100)
        _, _, body = get(server.url + "/events?n=3")
        payload = json.loads(body)
        assert payload["count"] == 3
        assert [e["period_index"] for e in payload["events"]] == [2, 3, 4]
        _, _, body = get(server.url + "/events?n=100&kind=period")
        payload = json.loads(body)
        assert payload["count"] == 5
        assert all(e["event"] == "period" for e in payload["events"])

    def test_bad_n_is_a_400(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/events?n=bogus")
        assert excinfo.value.code == 400

    def test_negative_and_absurd_n_are_400(self, live):
        _, server = live
        for query in ("n=-1", "n=999999999999"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/events?" + query)
            assert excinfo.value.code == 400, query
            assert "error" in json.loads(excinfo.value.read())

    def test_without_memory_sink_responds_with_note(self):
        obs = enabled_instrumentation(memory_events=False)
        with ObsServer(obs) as server:
            _, _, body = get(server.url + "/events")
            payload = json.loads(body)
            assert payload["events"] == []
            assert "note" in payload


class TestQueryEndpoint:
    def test_query_evaluates_over_live_history(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(5):
            dog.observe_period(100, 100)
        _, headers, body = get(
            server.url + "/query?expr=count_over_time(syndog_cusum%5B10m%5D)"
        )
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["expr"] == "count_over_time(syndog_cusum[10m])"
        assert payload["at"] == 100.0
        assert payload["result"] == [
            {"labels": {"agent": "router-a"}, "value": 5.0}
        ]
        assert payload["count"] == 1

    def test_explicit_at_parameter(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(5):
            dog.observe_period(100, 100)
        payload = json.loads(
            get(server.url + "/query?expr=syndog_x_n&at=40")[2]
        )
        assert payload["at"] == 40.0

    def test_missing_expr_is_400_with_json_body(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/query")
        assert excinfo.value.code == 400
        assert "expr" in json.loads(excinfo.value.read())["error"]

    def test_malformed_expr_is_400_with_json_body(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/query?expr=rate(nope")
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_bad_at_is_400(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/query?expr=syndog_x_n&at=bogus")
        assert excinfo.value.code == 400

    def test_non_finite_at_is_400(self, live):
        _, server = live
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + f"/query?expr=syndog_x_n&at={raw}")
            assert excinfo.value.code == 400, raw

    def test_disabled_tsdb_is_503(self):
        obs = enabled_instrumentation(tsdb=False)
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/query?expr=syndog_x_n")
            assert excinfo.value.code == 503


class TestAlertsEndpoint:
    def test_live_alert_document(self):
        from repro.obs.alerts import AlertRule

        obs = enabled_instrumentation(
            alert_rules=[AlertRule("hot", "syndog_cusum > 1.05")]
        )
        with ObsServer(obs) as server:
            dog = SynDog(obs=obs, name="router-a")
            for _ in range(12):
                dog.observe_period(100, 100)
            dog.observe_period(5000, 100)
            payload = json.loads(get(server.url + "/alerts")[2])
            assert payload["enabled"] is True
            assert payload["firing"] == ["hot"]
            assert payload["states"]["hot"]["state"] == "firing"
            assert [t["to"] for t in payload["transitions"]] == ["firing"]

    def test_without_alert_manager_reports_disabled(self, live):
        _, server = live
        payload = json.loads(get(server.url + "/alerts")[2])
        assert payload == {"enabled": False}


class TestFleetEndpoint:
    def test_live_fleet_document(self, live):
        obs, server = live
        for name in ("router-a", "router-b", "router-c"):
            dog = SynDog(obs=obs, name=name)
            for _ in range(11):
                dog.observe_period(100, 100)
        flood = SynDog(obs=obs, name="router-z")
        for _ in range(11):
            flood.observe_period(100, 100)
        flood.observe_period(5000, 100)
        _, headers, body = get(server.url + "/fleet")
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(body)
        assert doc["agents"]["total"] == 4
        assert doc["agents"]["alarming"] == 1
        assert doc["watermark"] is not None
        top = {e["agent"] for e in doc["top"]["cusum"]["entries"]}
        assert "router-z" in top
        assert doc["digests"]["cusum"]["quantiles"]["p99"] is not None

    def test_fleet_document_stays_o_of_k(self):
        # 50 agents vs 5 agents: same key structure, top lists bounded
        # by K — the document grows with K, not fleet size.
        def shape(value):
            if isinstance(value, dict):
                return {key: shape(value[key]) for key in sorted(value)}
            if isinstance(value, list):
                return "list"
            return "leaf"

        docs = []
        for count in (5, 50):
            obs = enabled_instrumentation(recorder_post_periods=2)
            with ObsServer(obs, fleet_top_k=4) as server:
                for i in range(count):
                    dog = SynDog(obs=obs, name=f"router-{i:03d}")
                    dog.observe_period(100, 100)
                docs.append(json.loads(get(server.url + "/fleet")[2]))
        small, large = docs
        assert shape(small) == shape(large)
        for summary in large["top"].values():
            assert len(summary["entries"]) <= 4

    def test_without_recorder_is_503(self):
        obs = enabled_instrumentation(flight_recorder=False)
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/fleet")
            assert excinfo.value.code == 503
            assert "recorder" in json.loads(excinfo.value.read())["error"]


class TestHealthzSummary:
    def test_summary_block_is_always_present(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(3):
            dog.observe_period(100, 100)
        health = json.loads(get(server.url + "/healthz")[2])
        assert health["summary"]["agents_total"] == 1
        assert health["summary"]["ok"] == 1
        assert "agents" in health

    def test_per_agent_map_omitted_above_cutoff(self):
        obs = enabled_instrumentation(recorder_post_periods=2)
        with ObsServer(obs, healthz_agents_limit=3) as server:
            for i in range(5):
                dog = SynDog(obs=obs, name=f"router-{i}")
                dog.observe_period(100, 100)
            health = json.loads(get(server.url + "/healthz")[2])
            assert "agents" not in health
            assert health["agents_omitted"] == 5
            assert health["summary"]["agents_total"] == 5


class TestProfileEndpoint:
    def test_profiler_disabled_is_503(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/profile")
        assert excinfo.value.code == 503
        assert "profiler" in json.loads(excinfo.value.read())["error"]

    def test_live_profile_document(self):
        obs = enabled_instrumentation(profiler="cost-model")
        with ObsServer(obs) as server:
            obs.profiler.stage("classify").add()
            obs.profiler.stage("classify").add()
            _, headers, body = get(server.url + "/profile")
            assert headers["Content-Type"].startswith("application/json")
            payload = json.loads(body)
            assert payload["mode"] == "cost-model"
            (row,) = payload["stages"]
            assert row["stage"] == "classify"
            assert row["calls"] == 2
            # Scrape again mid-run: live state, not a final export.
            obs.profiler.stage("classify").add()
            payload = json.loads(get(server.url + "/profile")[2])
            assert payload["stages"][0]["calls"] == 3

    def test_metrics_scrape_exports_profile_counters(self):
        obs = enabled_instrumentation(profiler="cost-model")
        with ObsServer(obs) as server:
            obs.profiler.stage("classify").add()
            _, _, body = get(server.url + "/metrics")
            samples = parse_prometheus_text(body.decode("utf-8"))
            as_map = {
                (name, tuple(sorted(labels.items()))): value
                for name, labels, value in samples
            }
            key = ("profile_stage_calls_total", (("stage", "classify"),))
            assert as_map[key] == 1.0

    def test_profile_scrapes_race_live_ingestion(self):
        """Mirror the scrape-race contract for /profile: hammer the
        endpoint while packets flow through a profiled detector on
        another thread; every response stays a well-formed document."""
        import threading

        obs = enabled_instrumentation(profiler="cost-model")
        with ObsServer(obs) as server:
            dog = SynDog(obs=obs, name="router-a")
            dog.observe_period(100, 100)
            stop = threading.Event()

            def ingest():
                while not stop.is_set():
                    dog.observe_period(100, 100)

            feeder = threading.Thread(target=ingest, daemon=True)
            feeder.start()
            try:
                requests = 0
                for _ in range(10):
                    payload = json.loads(get(server.url + "/profile")[2])
                    assert payload["mode"] == "cost-model"
                    (row,) = payload["stages"]
                    assert row["stage"] == "cusum.step"
                    assert row["calls"] >= 1
                    status, _, body = get(server.url + "/metrics")
                    assert status == 200
                    parse_prometheus_text(body.decode("utf-8"))
                    requests += 2
            finally:
                stop.set()
                feeder.join(timeout=5)
            assert server.requests_served == requests


class TestEveryComponentOff:
    def test_each_payload_on_the_null_bundle(self):
        # Every component slot is None: no sockets needed.
        server = ObsServer(NULL_INSTRUMENTATION)
        assert server.metrics_text() is None
        assert server.profile_document() is None
        assert server.fleet_document() is None
        assert server.query_result("syndog_x_n") is None
        assert server.slo_document() is None
        assert server.alerts_document() == {"enabled": False}
        health = server.health()
        assert health["status"] == "ok"
        assert health["agents"] == {}
        assert health["metrics_families"] == health["events_emitted"] == 0
        assert server.events_tail()["emitted"] == 0


class TestHeadRequests:
    def test_head_matches_get_without_body(self, live):
        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        dog.observe_period(100, 100)
        for route in ("/metrics", "/healthz", "/events", "/alerts",
                      "/query?expr=syndog_x_n", "/"):
            request = urllib.request.Request(
                server.url + route, method="HEAD"
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert int(response.headers["Content-Length"]) > 0
                assert response.read() == b""

    def test_head_profile_with_profiler_enabled(self):
        obs = enabled_instrumentation(profiler="cost-model")
        with ObsServer(obs) as server:
            obs.profiler.stage("classify").add()
            request = urllib.request.Request(
                server.url + "/profile", method="HEAD"
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert int(response.headers["Content-Length"]) > 0
                assert response.read() == b""

    def test_head_propagates_error_statuses(self, live):
        _, server = live
        request = urllib.request.Request(
            server.url + "/nope", method="HEAD"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404


class TestConcurrentScrapes:
    def test_scrapes_race_live_ingestion(self, live):
        """Scrape every endpoint repeatedly while the detector ingests
        on another thread: every response stays well-formed and the
        request counter (lock-guarded) matches the request count."""
        import threading

        obs, server = live
        dog = SynDog(obs=obs, name="router-a")
        # Prime one period on this thread so every metric family and
        # labeled child exists before the scrape/ingest race begins.
        dog.observe_period(100, 100)
        stop = threading.Event()

        def ingest():
            while not stop.is_set():
                dog.observe_period(100, 100)

        feeder = threading.Thread(target=ingest, daemon=True)
        feeder.start()
        try:
            requests = 0
            for _ in range(10):
                status, _, body = get(server.url + "/metrics")
                assert status == 200
                parse_prometheus_text(body.decode("utf-8"))
                health = json.loads(get(server.url + "/healthz")[2])
                assert health["status"] in ("ok", "degraded", "alarming")
                payload = json.loads(
                    get(server.url + "/query?expr=syndog_cusum")[2]
                )
                assert payload["count"] in (0, 1)
                requests += 3
        finally:
            stop.set()
            feeder.join(timeout=5)
        assert server.requests_served == requests


class TestServerLifecycle:
    def test_unknown_route_is_404_and_root_lists_endpoints(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/nope")
        assert excinfo.value.code == 404
        _, _, body = get(server.url + "/")
        endpoints = json.loads(body)["endpoints"]
        assert "/metrics" in endpoints
        assert "/profile" in endpoints

    def test_ephemeral_port_resolved_and_stop_idempotent(self):
        obs = enabled_instrumentation()
        server = ObsServer(obs, port=0)
        server.start()
        assert server.port > 0
        assert server.running
        server.stop()
        server.stop()  # second stop is a no-op
        assert not server.running
        with pytest.raises(urllib.error.URLError):
            get(f"http://127.0.0.1:{server.port}/healthz")

    def test_start_twice_is_a_no_op(self):
        obs = enabled_instrumentation()
        with ObsServer(obs) as server:
            port = server.port
            server.start()
            assert server.port == port
