"""Merging per-shard observability into one registry / event stream.

Worker processes cannot share a :class:`~repro.obs.metrics.MetricsRegistry`
with the parent, so each shard instruments its own and ships a plain-
dict **snapshot** home; the parent folds the snapshots into its live
registry.  The merge semantics per instrument kind:

* **Counter** — summation.  Counter increments are (integer-valued)
  event counts, so merging is exact, associative and commutative.
* **Histogram** — per-bucket count summation plus ``sum``/``count``
  accumulation.  Bucket counts are integers (exact); ``sum`` is a
  float accumulated **in merge order**, which the engine fixes to
  shard-index order so a merged export is deterministic for a given
  plan.
* **Gauge** — last-write-wins in merge order.  A gauge is a point
  sample, not a flow; per-shard gauges are only meaningful when each
  label set is written by exactly one shard (per-agent gauges), and
  fleet-level summary gauges must be recomputed by the parent after
  the merge.

Events merge by **logical order**: every shard returns its events
grouped per grid item, and :func:`merge_event_groups` re-emits them in
grid-index order with freshly stamped ``seq`` — exactly the stream a
serial run would have written.

Byte-identity caveat: wall-clock measurements (``*_seconds*``
histograms, ``profile_stage_*`` families, per-event ``wall_seconds``
fields) are real timings and differ between *any* two runs, serial or
not.  :func:`deterministic_families` / :func:`canonical_event` strip
exactly that nondeterministic surface, so equivalence tests — and CI —
can assert byte-identity on everything else.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "registry_snapshot",
    "merge_snapshot",
    "merge_snapshots",
    "merged_registry",
    "deterministic_families",
    "render_deterministic",
    "canonical_event",
    "canonical_events",
    "merge_event_groups",
    "tsdb_snapshot",
    "merge_tsdb_snapshots",
    "merge_rollup_snapshots",
    "NONDETERMINISTIC_EVENT_FIELDS",
]

Snapshot = List[Dict[str, Any]]
Event = Dict[str, Any]

#: Event payload fields that carry wall-clock measurements and can
#: never be identical between two runs.  ``span_seconds`` is the soak
#: epoch event's per-span wall-clock aggregate (repro.experiments.soak).
NONDETERMINISTIC_EVENT_FIELDS: Tuple[str, ...] = (
    "wall_seconds", "seconds", "span_seconds",
)

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# ----------------------------------------------------------------------
# Registry → snapshot
# ----------------------------------------------------------------------
def _family_values(family: Any) -> Dict[str, Any]:
    """One family child's state as plain JSON-able values."""
    if isinstance(family, Histogram):
        return {
            "bucket_counts": list(family._bucket_counts),
            "sum": family._sum,
            "count": family._count,
        }
    return {"value": family._value}


def registry_snapshot(registry: MetricsRegistry) -> Snapshot:
    """The registry as a list of plain dicts, in registration order.

    Registration order is preserved so a merged registry exports its
    families in the same order a serial run would (the Prometheus
    renderer walks registration order).
    """
    snapshot: Snapshot = []
    for family in registry.collect():
        entry: Dict[str, Any] = {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
        }
        if isinstance(family, Histogram):
            entry["buckets"] = list(family.buckets)
        if family.labelnames:
            entry["children"] = [
                {"labels": list(key), **_family_values(child)}
                for key, child in family._children.items()
            ]
        else:
            entry.update(_family_values(family))
        snapshot.append(entry)
    return snapshot


# ----------------------------------------------------------------------
# Snapshot → registry
# ----------------------------------------------------------------------
def _merge_values(target: Any, values: Dict[str, Any]) -> None:
    if isinstance(target, Counter):
        target._value += values["value"]
    elif isinstance(target, Gauge):
        target._value = float(values["value"])  # last write wins
    elif isinstance(target, Histogram):
        counts = values["bucket_counts"]
        if len(counts) != len(target._bucket_counts):
            raise ValueError(
                f"{target.name}: bucket count mismatch "
                f"({len(counts)} vs {len(target._bucket_counts)})"
            )
        for i, count in enumerate(counts):
            target._bucket_counts[i] += count
        target._sum += values["sum"]
        target._count += values["count"]
    else:  # pragma: no cover - the registry only builds the three kinds
        raise TypeError(f"cannot merge into {type(target).__name__}")


def merge_snapshot(registry: MetricsRegistry, snapshot: Snapshot) -> None:
    """Fold one shard snapshot into *registry* (get-or-create families,
    accumulate children)."""
    for entry in snapshot:
        cls = _KINDS.get(entry["kind"])
        if cls is None:
            raise ValueError(f"unknown family kind {entry['kind']!r}")
        kwargs = {}
        if cls is Histogram:
            kwargs["buckets"] = tuple(entry["buckets"])
        factory = {
            Counter: registry.counter,
            Gauge: registry.gauge,
            Histogram: registry.histogram,
        }[cls]
        family = factory(
            entry["name"], entry["help"], tuple(entry["labelnames"]), **kwargs
        )
        if entry["labelnames"]:
            for child_entry in entry["children"]:
                child = family.labels(*child_entry["labels"])
                _merge_values(child, child_entry)
        else:
            _merge_values(family, entry)


def merge_snapshots(
    registry: MetricsRegistry, snapshots: Iterable[Snapshot]
) -> MetricsRegistry:
    """Fold many snapshots, **in the given order** (the engine passes
    shard-index order so float accumulation is deterministic)."""
    for snapshot in snapshots:
        merge_snapshot(registry, snapshot)
    return registry


def merged_registry(snapshots: Iterable[Snapshot]) -> MetricsRegistry:
    """A fresh registry holding the merge of *snapshots*."""
    return merge_snapshots(MetricsRegistry(), snapshots)


# ----------------------------------------------------------------------
# The deterministic view (what equivalence tests byte-compare)
# ----------------------------------------------------------------------
def _is_deterministic_name(name: str) -> bool:
    # parallel_worker_* counters measure scheduling accidents (crash
    # reschedules) — facts about the host, like wall time, not about
    # the workload — so they are excluded from byte-identity the same
    # way timings are.
    # profile_stage_* families carry timers-mode wall nanoseconds; the
    # profiler's own deterministic artifact is the cost-model document
    # (repro.obs.profiler), not the registry fold.
    return (
        "_seconds" not in name
        and not name.startswith("parallel_worker_")
        and not name.startswith("profile_stage_")
    )


def deterministic_families(registry: MetricsRegistry) -> List[Any]:
    """The registry's families minus wall-clock measurements."""
    return [
        family
        for family in registry.collect()
        if _is_deterministic_name(family.name)
    ]


def render_deterministic(registry: MetricsRegistry) -> str:
    """Prometheus text for the deterministic families only — the
    byte-comparable projection of an exported registry."""
    from .exporters import render_prometheus

    filtered = MetricsRegistry()
    filtered._families = {
        family.name: family for family in deterministic_families(registry)
    }
    return render_prometheus(filtered)


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def canonical_event(
    event: Event,
    drop: Sequence[str] = NONDETERMINISTIC_EVENT_FIELDS,
    drop_seq: bool = False,
) -> Event:
    """The event minus its wall-clock fields (and, optionally, its
    ``seq`` stamp), preserving key order."""
    dropped = set(drop)
    if drop_seq:
        dropped.add("seq")
    return {key: value for key, value in event.items() if key not in dropped}


def canonical_events(
    events: Iterable[Event],
    drop: Sequence[str] = NONDETERMINISTIC_EVENT_FIELDS,
    drop_seq: bool = False,
) -> List[Event]:
    return [canonical_event(event, drop, drop_seq) for event in events]


def merge_event_groups(
    events: Any,
    groups: Iterable[Tuple[int, Sequence[Event]]],
    tsdb: Optional[Any] = None,
) -> int:
    """Re-emit per-item event groups into a live event log in grid
    order.

    *groups* is an iterable of ``(grid_index, item_events)``; the union
    over all shards is sorted by grid index — the order a serial run
    would have emitted — and every event is re-stamped with the
    parent's ``seq``.  Returns the number of events re-emitted.

    When a live *tsdb* is passed, the parent's event-loss watermark
    series are reconstructed during the replay: before re-emitting each
    ``period`` event the store ticks at that period's end time, exactly
    where the serial detector ticked — so ``obs_events_dropped_total``
    history (drops happen *here*, against the parent's bounded sinks)
    is byte-identical to a serial run's.
    """
    emitted = 0
    tick = tsdb.tick_events if tsdb is not None else None
    for _index, item_events in sorted(groups, key=lambda group: group[0]):
        for event in item_events:
            if tick is not None and event.get("event") == "period":
                tick(float(event.get("end_time", 0.0)))
            payload = {
                key: value
                for key, value in event.items()
                if key not in ("event", "seq")
            }
            events.emit(event["event"], **payload)
            emitted += 1
    return emitted


# ----------------------------------------------------------------------
# Time-series history
# ----------------------------------------------------------------------
def tsdb_snapshot(tsdb: Any) -> Dict[str, Any]:
    """A shard TSDB as plain dicts (feed samples only — a shard's
    registry-snapshot series would describe partial counters)."""
    return tsdb.to_dict(include_registry=False)


def merge_tsdb_snapshots(
    tsdb: Any, snapshots: Iterable[Dict[str, Any]]
) -> Any:
    """Fold shard TSDB snapshots into the parent store, **in the given
    order** (the engine passes shard merge-order; ties on sample time
    resolve to the earlier shard, deterministically)."""
    for snapshot in snapshots:
        tsdb.merge_from(snapshot)
    return tsdb


# ----------------------------------------------------------------------
# Fleet rollups
# ----------------------------------------------------------------------
def merge_rollup_snapshots(
    snapshots: Iterable[Dict[str, Any]], k: Optional[int] = None
) -> Any:
    """Fold shard rollup snapshots into one fleet rollup, **in the
    given order**.  Counter and bucket folds are exact integer sums
    (order-free); float ``sum`` sidecars and over-K top-K truncation
    follow merge order, which the engine fixes to
    :meth:`WorkPlan.merge_order` — worker-count-independent — so the
    merged document is byte-identical at any ``--workers``."""
    from .rollup import FleetRollup

    materialized = list(snapshots)
    if k is None:
        k = int(materialized[0]["k"]) if materialized else None
    target = FleetRollup() if k is None else FleetRollup(k=k)
    for snapshot in materialized:
        target.merge_snapshot(snapshot)
    return target
