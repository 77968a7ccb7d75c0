"""The shard-private bundle the engine builds from a parent bundle
(:func:`repro.parallel.engine.shard_bundle`): the parent's live slots,
each built fresh with the parent's settings, a store that does not
snapshot and no alert manager."""

import pickle

import pytest

from repro.obs.alerts import AlertManager, builtin_rules
from repro.obs.events import EventLog, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Instrumentation
from repro.obs.tsdb import TimeSeriesDB
from repro.parallel.engine import shard_bundle

SLOTS = ("registry", "events", "recorder", "tsdb", "profiler")

#: Every slot on, each slot off alone, every slot off.
LIVE_SETS = (
    [frozenset(SLOTS)]
    + [frozenset(SLOTS) - {slot} for slot in SLOTS]
    + [frozenset()]
)


def parent_bundle(live):
    """A parent bundle with the *live* slots on, none at its default
    setting, and an alert manager."""
    return Instrumentation(
        registry=MetricsRegistry() if "registry" in live else None,
        events=(
            EventLog(MemorySink(max_events=10)) if "events" in live else None
        ),
        recorder=(
            FlightRecorder(capacity=30, post_alarm_periods=2)
            if "recorder" in live
            else None
        ),
        tsdb=TimeSeriesDB(retention=64) if "tsdb" in live else None,
        alerts=AlertManager(rules=builtin_rules()),
        profiler=(
            Profiler(mode="timers", sample_every=16)
            if "profiler" in live
            else None
        ),
    )


def assert_built_from(shard, parent):
    for slot in SLOTS:
        mine, theirs = getattr(shard, slot), getattr(parent, slot)
        assert (mine is None) == (theirs is None), slot
        assert mine is None or mine is not theirs, slot
    assert shard.alerts is None
    if parent.events is not None:
        sink = shard.memory_events()
        assert sink is not None and sink.max_events is None
        assert shard.events.sinks() == [sink]
    if parent.recorder is not None:
        assert shard.recorder.capacity == 30
        assert shard.recorder.post_alarm_periods == 2
    if parent.tsdb is not None:
        assert shard.tsdb.retention == 64
        assert not shard.tsdb.record_snapshots
        if shard.registry is not None:
            shard.registry.counter("shard_items_total").inc()
        shard.tsdb.tick(20.0)
        assert len(shard.tsdb) == 0
    if parent.profiler is not None:
        assert shard.profiler.mode == "timers"
        assert shard.profiler.sample_every == 16


@pytest.mark.parametrize(
    "live", LIVE_SETS, ids=lambda live: "+".join(sorted(live)) or "none"
)
def test_shard_bundle_has_the_parents_slots_and_settings(live):
    parent = parent_bundle(live)
    assert_built_from(shard_bundle(parent), parent)
    # The non-fork start method hands each worker its bundle pickled.
    assert_built_from(pickle.loads(pickle.dumps(shard_bundle(parent))), parent)
