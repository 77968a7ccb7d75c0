"""Merge-layer invariants: folding per-shard registries and event
groups must reproduce exactly what one serial registry / stream would
hold.

* counter and histogram merges are associative and commutative
  (integer-valued increments — the only kind the repro emits for
  deterministic families);
* merging N single-shard snapshots equals instrumenting one registry
  serially;
* event groups re-emit in grid order with fresh ``seq`` stamps;
* the canonical-event projection strips exactly the wall-clock fields.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.events import EventLog, MemorySink
from repro.obs.merge import (
    NONDETERMINISTIC_EVENT_FIELDS,
    canonical_event,
    canonical_events,
    deterministic_families,
    merge_event_groups,
    merge_snapshot,
    merged_registry,
    registry_snapshot,
    render_deterministic,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.exporters import render_prometheus


def build_registry(increments):
    """A registry exercised by ``increments``: a list of
    ``(counter_value, gauge_value, histogram_observations)`` triples,
    one per simulated shard item."""
    registry = MetricsRegistry()
    counter = registry.counter("demo_total", "events")
    labeled = registry.counter("demo_site_total", "per site", ("site",))
    gauge = registry.gauge("demo_level", "last value")
    histogram = registry.histogram(
        "demo_size", "sizes", buckets=(1.0, 5.0, 25.0)
    )
    for count, level, observations in increments:
        counter.inc(count)
        labeled.labels("site-%d" % (count % 3)).inc(count)
        gauge.set(level)
        for value in observations:
            histogram.observe(value)
    return registry


increment_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=-10, max_value=10),
        st.lists(
            st.integers(min_value=0, max_value=30), max_size=5
        ),
    ),
    max_size=8,
)


class TestSnapshotRoundTrip:
    @given(increments=increment_lists)
    def test_snapshot_restores_exactly(self, increments):
        registry = build_registry(increments)
        restored = merged_registry([registry_snapshot(registry)])
        assert render_prometheus(restored) == render_prometheus(registry)

    @given(chunks=st.lists(increment_lists, min_size=1, max_size=4))
    def test_merging_shards_equals_serial(self, chunks):
        """N single-shard registries fold into exactly the registry a
        serial run over the concatenated increments produces (the gauge
        lands on the last chunk's final write because merge order is
        chunk order)."""
        serial = build_registry(list(itertools.chain.from_iterable(chunks)))
        merged = merged_registry(
            [registry_snapshot(build_registry(chunk)) for chunk in chunks]
        )
        drop_gauge = not chunks[-1]  # empty last chunk: no final write
        serial_text = render_prometheus(serial)
        merged_text = render_prometheus(merged)
        if not drop_gauge:
            assert merged_text == serial_text

    @given(a=increment_lists, b=increment_lists)
    def test_counter_merge_commutative(self, a, b):
        """Counters and histogram bucket counts are integer flows, so
        merge order cannot change them (gauges legitimately differ)."""
        ab = merged_registry(
            [registry_snapshot(build_registry(a)),
             registry_snapshot(build_registry(b))]
        )
        ba = merged_registry(
            [registry_snapshot(build_registry(b)),
             registry_snapshot(build_registry(a))]
        )

        def flows(registry):
            entries = []
            for entry in registry_snapshot(registry):
                if entry["kind"] == "gauge":
                    continue
                if "children" in entry:
                    # child creation order differs with merge order;
                    # the values must not
                    entry = dict(entry)
                    entry["children"] = sorted(
                        entry["children"], key=lambda c: c["labels"]
                    )
                entries.append(entry)
            return sorted(entries, key=lambda e: e["name"])

        assert flows(ab) == flows(ba)

    @given(a=increment_lists, b=increment_lists, c=increment_lists)
    def test_merge_associative(self, a, b, c):
        snaps = [
            registry_snapshot(build_registry(chunk)) for chunk in (a, b, c)
        ]
        left = registry_snapshot(merged_registry(
            [registry_snapshot(merged_registry(snaps[:2])), snaps[2]]
        ))
        right = registry_snapshot(merged_registry(
            [snaps[0], registry_snapshot(merged_registry(snaps[1:]))]
        ))
        assert left == right


class TestDeterministicView:
    def test_wall_clock_families_filtered(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "kept").inc()
        registry.histogram("demo_run_seconds", "wall clock").observe(0.1)
        registry.counter("profile_stage_calls_total", "profiler").inc()
        names = [f.name for f in deterministic_families(registry)]
        assert names == ["demo_total"]
        text = render_deterministic(registry)
        assert "demo_total" in text
        assert "demo_run_seconds" not in text
        assert "profile_stage_calls_total" not in text

    def test_canonical_event_strips_wall_clock(self):
        event = {
            "seq": 9,
            "event": "trial",
            "wall_seconds": 0.123,
            "seconds": 4.5,
            "rate": 2.0,
        }
        assert canonical_event(event) == {
            "seq": 9, "event": "trial", "rate": 2.0,
        }
        assert canonical_event(event, drop_seq=True) == {
            "event": "trial", "rate": 2.0,
        }
        for field in NONDETERMINISTIC_EVENT_FIELDS:
            assert field not in canonical_event(event)


class TestEventGroupMerge:
    def test_groups_reemit_in_grid_order(self):
        sink = MemorySink(max_events=None)
        events = EventLog(sink)
        groups = [
            (2, [{"seq": 7, "event": "c", "value": 2}]),
            (0, [{"seq": 3, "event": "a", "value": 0},
                 {"seq": 4, "event": "a2", "value": 0}]),
            (1, [{"seq": 1, "event": "b", "value": 1}]),
        ]
        emitted = merge_event_groups(events, groups)
        assert emitted == 4
        assert [e["event"] for e in sink.events] == ["a", "a2", "b", "c"]
        # seq is re-stamped by the parent log, not copied from shards
        assert [e["seq"] for e in sink.events] == sorted(
            e["seq"] for e in sink.events
        )
        assert canonical_events(sink.events, drop_seq=True) == [
            {"event": "a", "value": 0},
            {"event": "a2", "value": 0},
            {"event": "b", "value": 1},
            {"event": "c", "value": 2},
        ]
