"""Bound per-period writes: the registry snapshot, the trajectory
writer and the compiled-query selection cache.

The per-period paths bind their series once and append directly; these
tests hold them to the behaviour of the straightforward per-tick loops
they replaced, kept here (and only here) as reference oracles.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.tsdb as tsdb_module
from repro.core.syndog import SynDog
from repro.experiments.soak import run_soak_campaign
from repro.obs.alerts import AlertRule, builtin_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import enabled_instrumentation
from repro.obs.slo import SLOEngine
from repro.obs.tsdb import (
    DETECTOR_SERIES,
    TimeSeriesDB,
    TrajectoryWriter,
    tsdb_from_events,
)

_EVENT_STAT_NAMES = ("obs_events_emitted_total", "obs_events_dropped_total")


def reference_tick_registry(store, registry, t):
    """The registry snapshot as a walk of ``collect()``/``samples()``
    on every tick: the semantics the bound snapshot must reproduce."""
    for family in registry.collect():
        if family.kind not in ("counter", "gauge"):
            continue
        name = family.name
        if name in _EVENT_STAT_NAMES:
            continue
        for sample in family.samples():
            store.append(
                name, sample.labels, t, sample.value, source="registry"
            )


# ----------------------------------------------------------------------
# Registry snapshot
# ----------------------------------------------------------------------
#: name -> (kind, labelnames); fixed per name so get-or-create never
#: raises a kind or label mismatch.
FAMILIES = {
    "requests_total": ("counter", ()),
    "agent_periods_total": ("counter", ("agent",)),
    "agent_level": ("gauge", ("agent", "shard")),
    "agent_latency_seconds": ("histogram", ("agent",)),
    "profile_stage_calls_total": ("counter", ("stage",)),
    "obs_events_dropped_total": ("gauge", ()),
}

family_names = st.sampled_from(sorted(FAMILIES))
label_values = st.sampled_from(("a", "b"))
amounts = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("register"), family_names),
        st.tuples(st.just("child"), family_names, label_values),
        st.tuples(st.just("update"), family_names, label_values, amounts),
    ),
    max_size=4,
)
#: Ticks with registry changes between them; each round may first bind
#: a fresh registry.
rounds = st.lists(
    st.tuples(st.sampled_from((False, False, False, True)), mutations),
    min_size=1,
    max_size=8,
)


def instrument(registry, name, label_value=None):
    kind, labelnames = FAMILIES[name]
    family = getattr(registry, kind)(name, "", labelnames)
    if labelnames and label_value is not None:
        return family.labels(*[label_value] * len(labelnames))
    return family


def update(registry, name, label_value, amount):
    target = instrument(registry, name, label_value)
    kind = FAMILIES[name][0]
    if kind == "counter":
        target.inc(abs(amount))
    elif kind == "gauge":
        target.set(amount)
    else:
        target.observe(abs(amount))


class TestRegistrySnapshot:
    @settings(max_examples=200, deadline=None)
    @given(rounds=rounds)
    def test_matches_the_collect_walk(self, rounds):
        registry = MetricsRegistry()
        store, reference = TimeSeriesDB(), TimeSeriesDB()
        store.bind(registry=registry)
        for index, (rebind, ops) in enumerate(rounds, start=1):
            if rebind:
                registry = MetricsRegistry()
                store.bind(registry=registry)
            for op in ops:
                if op[0] == "register":
                    instrument(registry, op[1])
                elif op[0] == "child":
                    instrument(registry, op[1], op[2])
                else:
                    update(registry, *op[1:])
            store.tick(20.0 * index)
            reference_tick_registry(reference, registry, 20.0 * index)
        assert store.to_dict() == reference.to_dict()
        assert store.samples_appended == reference.samples_appended

    def test_child_created_between_ticks_appears_at_the_next_tick(self):
        registry = MetricsRegistry()
        store = TimeSeriesDB()
        store.bind(registry=registry)
        family = registry.counter("hits_total", "", ("agent",))
        family.labels("a").inc()
        store.tick(20.0)
        family.labels("b").inc(2)
        store.tick(40.0)
        assert [
            (series.labels, series.samples)
            for series in store.series("hits_total")
        ] == [
            ((("agent", "a"),), [(20.0, 1.0), (40.0, 1.0)]),
            ((("agent", "b"),), [(40.0, 2.0)]),
        ]

    def test_binding_a_second_registry_replaces_the_handles(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("first_total").inc()
        second.counter("second_total").inc(5)
        # Equal generations: the rebind alone must invalidate.
        assert first.generation == second.generation
        store = TimeSeriesDB()
        store.bind(registry=first)
        store.tick(20.0)
        store.bind(registry=second)
        store.tick(40.0)
        (old,) = store.series("first_total")
        (new,) = store.series("second_total")
        assert old.samples == [(20.0, 1.0)]
        assert new.samples == [(40.0, 5.0)]

    def test_generation_counts_families_and_labeled_children(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "", ("agent",))
        assert registry.generation == 1
        family.labels("a").inc()
        family.labels("a").inc()
        registry.counter("x_total", "", ("agent",))  # existing family
        assert registry.generation == 2


# ----------------------------------------------------------------------
# Selection cache
# ----------------------------------------------------------------------
class TestSelectionCache:
    def test_rule_over_a_counter_created_mid_run(self):
        rule = AlertRule(
            "worker_crashes",
            "increase(federation_member_failures_total[10m]) > 0",
            for_periods=2,
        )
        obs = enabled_instrumentation(alert_rules=[rule])
        dog = SynDog(obs=obs, name="router-a")
        # Each network's child is first created by its first crash, so
        # the second episode is only seen if the new series invalidates
        # the rule's cached (empty-then-one-series) selection.
        crashes = {20: "net-0", 21: "net-0", 50: "net-1", 52: "net-1"}
        for index in range(90):
            if index in crashes:
                obs.registry.counter(
                    "federation_member_failures_total", "", ("network",)
                ).labels(crashes[index]).inc()
            dog.observe_period(100, 100)
        assert [
            (entry["to"], entry["t"]) for entry in obs.alerts.transitions
        ] == [
            ("pending", 440.0), ("firing", 460.0), ("resolved", 1020.0),
            ("pending", 1060.0), ("firing", 1080.0), ("resolved", 1640.0),
        ]

    def test_text_queries_are_not_cached(self):
        obs = enabled_instrumentation(alert_rules=builtin_rules())
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(5):
            dog.observe_period(100, 100)
        store = obs.tsdb
        size = len(store._selections)
        for index in range(1000):
            store.query(f"max_over_time(syndog_cusum[{index + 1}s])")
        assert len(store._selections) == size

    def test_slo_windows_share_one_selection(self):
        obs = enabled_instrumentation()
        dog = SynDog(obs=obs, name="router-a")
        for _ in range(200):
            dog.observe_period(100, 100)
        engine = SLOEngine()
        engine.evaluate(obs.tsdb)
        size = len(obs.tsdb._selections)
        engine.evaluate(obs.tsdb)
        assert len(obs.tsdb._selections) == size
        assert size <= sum(
            len(spec.bad_queries) + len(spec.total_queries)
            for spec in engine.specs
        )

    def test_reader_thread_never_pins_a_stale_selection(self):
        # The live server's /slo evaluates compiled queries on its own
        # thread while the detector adds series; right after each add,
        # a cached selection must already see every series.
        store = TimeSeriesDB()
        rule = AlertRule("r", "y >= 0")
        agents = 1000
        done = threading.Event()
        errors = []
        seen = []

        def read():
            try:
                while not done.is_set():
                    store.query(rule.query, at=20.0)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read)
        try:
            reader.start()
            for agent in range(agents):
                store.append("y", {"agent": str(agent)}, 20.0, 1.0)
                seen.append(len(store.query(rule.query, at=20.0)))
        finally:
            done.set()
            reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert errors == []
        assert seen == list(range(1, agents + 1))

    def test_reader_threads_see_aligned_columns(self):
        # The live server reads series without a lock while the detector
        # appends and compacts; every read must pair each time with its
        # own value.  Three readers and a writer outnumber the cores.
        store = TimeSeriesDB(retention=8)
        series = store.append("y", None, 0.0, 0.0)
        done = threading.Event()
        errors = []

        def read():
            try:
                while not done.is_set():
                    times, values = series.window(1e9, 2e9)
                    if values != [2.0 * t for t in times]:
                        errors.append(("window", times, values))
                    latest = series.latest(1e9, 2e9)
                    if latest is not None and latest[1] != 2.0 * latest[0]:
                        errors.append(("latest", latest))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            for step in range(1, 20_000):
                store.append_at(float(step), ((series, 2.0 * step),))
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert series.compactions > 1000

    def test_a_new_series_clears_the_cache(self):
        store = TimeSeriesDB()
        store.append("y", {"agent": "a"}, 20.0, 1.0)
        rule = AlertRule("r", "y > 0")
        assert len(store.query(rule.query)) == 1
        store.append("y", {"agent": "b"}, 20.0, 2.0)
        assert [entry["labels"] for entry in store.query(rule.query)] == [
            {"agent": "a"}, {"agent": "b"},
        ]


# ----------------------------------------------------------------------
# Counting guard: no per-period re-keying (no timing involved)
# ----------------------------------------------------------------------
class TestPerPeriodWork:
    def test_bound_writes_do_no_per_period_rekeying(self, monkeypatch):
        rules = builtin_rules()
        obs = enabled_instrumentation(alert_rules=rules)
        dog = SynDog(obs=obs, name="router-a")

        counts = {"collect": 0, "labels_key": 0, "select": {}}
        collect = MetricsRegistry.collect
        labels_key = tsdb_module._labels_key
        select = tsdb_module._Selector.select

        def counting_collect(self):
            counts["collect"] += 1
            return collect(self)

        def counting_labels_key(labels):
            counts["labels_key"] += 1
            return labels_key(labels)

        def counting_select(self, tsdb):
            counts["select"][id(self)] = counts["select"].get(id(self), 0) + 1
            return select(self, tsdb)

        monkeypatch.setattr(MetricsRegistry, "collect", counting_collect)
        monkeypatch.setattr(tsdb_module, "_labels_key", counting_labels_key)
        monkeypatch.setattr(tsdb_module._Selector, "select", counting_select)

        dog.observe_period(100, 100)
        counts["labels_key"] = 0
        for _ in range(999):
            dog.observe_period(100, 100)

        assert obs.alerts.evaluations == 1000
        assert counts["collect"] == 1
        assert counts["labels_key"] == 0
        assert counts["select"] == {
            id(rule.query.selector): 1 for rule in rules
        }


# ----------------------------------------------------------------------
# The single trajectory writer
# ----------------------------------------------------------------------
def trajectory_names(monkeypatch, run):
    """Run *run*; for every store a trajectory writer was taken on,
    the names of its agent-labeled feed series."""
    stores = []
    original = TrajectoryWriter.__init__

    def recording(self, tsdb, agent):
        stores.append(tsdb)
        original(self, tsdb, agent)

    with monkeypatch.context() as patch:
        patch.setattr(TrajectoryWriter, "__init__", recording)
        run()
    return [
        sorted({
            series.name
            for series in store.series(source="feed")
            if dict(series.labels).get("agent")
        })
        for store in stores
    ]


def observe_run(periods=40, flood_from=30):
    obs = enabled_instrumentation()
    dog = SynDog(obs=obs, name="router-a")
    for index in range(periods):
        dog.observe_period(5000 if index >= flood_from else 100, 100)
    return obs


class TestTrajectoryWriter:
    def test_every_writer_writes_exactly_the_shared_names(self, monkeypatch):
        expected = sorted(DETECTOR_SERIES)
        live = trajectory_names(monkeypatch, observe_run)
        events = observe_run().memory_events().events
        rebuilt = trajectory_names(
            monkeypatch, lambda: tsdb_from_events(events)
        )
        soak = trajectory_names(monkeypatch, lambda: run_soak_campaign(
            sim_days=1, obs=enabled_instrumentation(), workers=1
        ))
        assert live == [expected]
        assert rebuilt == [expected]
        # One writer per epoch's live detector, plus the parent's replay.
        assert len(soak) > 1 and all(names == expected for names in soak)

    def test_a_writer_that_never_writes_leaves_no_series(self):
        store = TimeSeriesDB()
        TrajectoryWriter(store, "router-a")
        assert len(store) == 0
        assert store.to_dict()["series"] == []
