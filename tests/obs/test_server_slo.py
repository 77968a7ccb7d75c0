"""The /slo endpoint and the continuous-operation healthz fields."""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import repro.obs.server as server_module
from repro.core.syndog import SynDog
from repro.obs.runtime import enabled_instrumentation
from repro.obs.server import ObsServer


def fetch(url):
    with urlopen(url) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def run_detector(obs, periods=10, restores=0):
    dog = SynDog(obs=obs, name="a0")
    for i in range(periods):
        dog.observe_period(30 + i, 30, start_time=20.0 * i)
    for _ in range(restores):
        dog = SynDog.restore(dog.checkpoint(), obs=obs, name="a0")
        dog.observe_period(30, 30, start_time=20.0 * periods)
    return dog


class TestHealthzShape:
    def test_uptime_and_restore_fields_present_and_typed(self):
        obs = enabled_instrumentation(memory_events=True)
        run_detector(obs, periods=10, restores=2)
        server = ObsServer(obs)
        document = server.health()
        assert isinstance(document["uptime_periods"], int)
        assert isinstance(document["checkpoints_restored"], int)
        # Periods 0-10 on one agent: both restores close period 10,
        # and the tape counts a repeated period index once.
        assert document["uptime_periods"] == 11
        assert document["checkpoints_restored"] == 2

    def test_uptime_periods_is_longest_streak_not_sum(self):
        obs = enabled_instrumentation(memory_events=True)
        long_dog = SynDog(obs=obs, name="long")
        short_dog = SynDog(obs=obs, name="short")
        for i in range(8):
            long_dog.observe_period(30, 30, start_time=20.0 * i)
        for i in range(3):
            short_dog.observe_period(30, 30, start_time=20.0 * i)
        document = ObsServer(obs).health()
        assert document["uptime_periods"] == 8
        assert document["periods_observed"] == 11

    def test_zero_defaults_without_agents_or_restores(self):
        obs = enabled_instrumentation(memory_events=True)
        document = ObsServer(obs).health()
        assert document["uptime_periods"] == 0
        assert document["checkpoints_restored"] == 0

    def test_served_document_round_trips_as_json(self):
        obs = enabled_instrumentation(memory_events=True)
        run_detector(obs, periods=4, restores=1)
        with ObsServer(obs) as server:
            status, document = fetch(server.url + "/healthz")
        assert status == 200
        assert document["uptime_periods"] == 5
        assert document["checkpoints_restored"] == 1


class TestSLOEndpoint:
    def test_document_over_live_history(self):
        obs = enabled_instrumentation(memory_events=True)
        run_detector(obs, periods=10)
        with ObsServer(obs) as server:
            status, document = fetch(server.url + "/slo")
        assert status == 200
        assert document["verdict"] in ("ok", "burning", "exhausted",
                                       "no_data")
        assert [entry["name"] for entry in document["slos"]] == [
            "detection_latency", "false_alarm_budget", "availability",
            "event_loss",
        ]

    def test_at_parameter_pins_the_evaluation_instant(self):
        obs = enabled_instrumentation(memory_events=True)
        run_detector(obs, periods=10)
        with ObsServer(obs) as server:
            _, document = fetch(server.url + "/slo?at=100")
        assert document["at"] == 100.0

    def test_non_finite_at_is_a_client_error(self):
        obs = enabled_instrumentation(memory_events=True)
        with ObsServer(obs) as server:
            try:
                urlopen(server.url + "/slo?at=inf")
            except HTTPError as error:
                assert error.code == 400
            else:  # pragma: no cover - the request must fail
                raise AssertionError("expected a 400")

    def test_disabled_history_store_is_503(self):
        obs = enabled_instrumentation(tsdb=False, memory_events=True)
        with ObsServer(obs) as server:
            try:
                urlopen(server.url + "/slo")
            except HTTPError as error:
                assert error.code == 503
            else:  # pragma: no cover - the request must fail
                raise AssertionError("expected a 503")

    def test_root_document_advertises_the_route(self):
        obs = enabled_instrumentation(memory_events=True)
        with ObsServer(obs) as server:
            _, document = fetch(server.url + "/")
        assert "/slo" in document["endpoints"]


class TestLockOrderDocumented:
    def test_module_docstring_states_the_order(self):
        doc = server_module.__doc__
        assert "Lock order" in doc
        assert "_registry_lock" in doc
        assert "_requests_lock" in doc
        # The healthz restore-counter read is part of the documented
        # registry-lock scope.
        assert "checkpoints_restored" in doc
