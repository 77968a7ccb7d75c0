"""Telemetry history: a bounded in-memory time-series store + queries.

SYN-dog's entire output *is* a time series — per-period ΔSYN, the
normalized X_n, the CUSUM statistic y_n, the alarm decision — yet the
rest of the obs stack only ever exposes the instantaneous state (the
live ``/metrics`` scrape) or the raw firehose (events JSONL).  An
operator asking "how close did y_n get to the threshold over the last
hour?" needs *retained* samples and a way to query them.  This module
is both halves:

:class:`TimeSeriesDB`
    A dependency-free in-memory TSDB.  Series are identified by
    ``(name, labels)``; every series is a bounded ring, held as two
    columns (sample times, sample values), with deterministic stride-2
    downsampling of its oldest half when the retention cap is hit, so a
    long-running agent holds history at O(retention) memory per series,
    forever.  Two sample sources:

    * **feed samples** — appended explicitly by instrumented
      components (the detector's per-period trajectory, the event-loss
      watermarks).  These carry only logical period time, so they are
      bit-reproducible run over run and shard over shard.
    * **registry snapshots** — per-period copies of every
      counter/gauge child in the bound registry, taken by
      :meth:`tick`.  These describe *the bundle that recorded them*;
      in sharded runs (:mod:`repro.parallel`) each worker sees only
      its shard's partial counters, so snapshot series are recorded by
      the live (parent-driven) path only and are excluded from
      deterministic comparisons (``source == "registry"``).

PromQL-lite (:func:`parse_query` / :meth:`TimeSeriesDB.query`)
    A small expression language over the store::

        syndog_cusum{agent="router-a"}
        max_over_time(syndog_cusum[5m]) > 0.8 * 1.05
        rate(obs_events_dropped_total[2m]) > 0

    Supported: instant selectors with ``=`` / ``!=`` label matchers,
    the range functions ``rate`` / ``increase`` / ``avg_over_time`` /
    ``max_over_time`` / ``min_over_time`` / ``sum_over_time`` /
    ``count_over_time`` / ``last_over_time`` over ``[30s|5m|1h]``
    windows, and a trailing comparison (``> >= < <= == !=``) against a
    constant arithmetic expression, which — as in PromQL — *filters*
    the result vector.  An alert rule "fires" when its filtered vector
    is non-empty (:mod:`repro.obs.alerts`).

The deterministic-merge contract mirrors :mod:`repro.obs.merge`: feed
samples carry logical time, shards ship :meth:`to_dict` snapshots, and
:func:`~repro.obs.merge.merge_tsdb_snapshots` folds them in shard
merge-order with a stable per-series sort, so a ``--workers N`` run
reconstructs byte-identical history for every N.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right, insort
from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

__all__ = [
    "DETECTOR_SERIES",
    "Sample",
    "Series",
    "TimeSeriesDB",
    "TrajectoryWriter",
    "QueryError",
    "parse_duration",
    "parse_query",
    "tsdb_from_events",
]

LabelsKey = Tuple[Tuple[str, str], ...]
Sample = Tuple[float, float]  #: (logical time, value)

#: Reads a registry instrument's current value for the per-period
#: snapshot (counters and gauges keep it in ``_value``).
_instrument_value = operator.attrgetter("_value")

#: Series names the registry snapshot must never shadow: these are fed
#: as first-class samples (with deterministic merge semantics) and the
#: registry copies would collide at the same (name, labels) key.
_EVENT_STAT_SERIES = ("obs_events_emitted_total", "obs_events_dropped_total")

#: The detector's per-period trajectory, one series per field, each
#: labeled by agent: ΔSYN, X_n, y_n, the alarm decision, the degraded
#: flag.  :class:`TrajectoryWriter` is the one place that writes them.
DETECTOR_SERIES = (
    "syndog_delta", "syndog_x_n", "syndog_cusum", "syndog_alarm_active",
    "syndog_degraded",
)

#: Registry families the per-period snapshot skips: the event stats
#: (fed first-class by the tick) and the detector gauges whose values
#: the trajectory already writes as ``syndog_cusum``, ``syndog_x_n``
#: and ``syndog_alarm_active`` — a snapshot copy would be the same
#: fact again, one period late.
_SNAPSHOT_SKIPPED = _EVENT_STAT_SERIES + (
    "syndog_statistic", "syndog_x", "syndog_alarm",
)

#: Instant selectors only look back this far for their latest sample —
#: a series that stopped reporting goes stale instead of answering
#: forever (Prometheus's lookback delta, scaled to 20 s periods).
DEFAULT_STALENESS_SECONDS = 600.0


def _labels_key(labels: Optional[Dict[str, Any]]) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One named, labeled sample ring with deterministic downsampling.

    The samples are two parallel columns, ``times`` and ``values``:
    an append adds one float to each, a window bisects ``times``
    directly, and a range function reduces the window's part of the
    columns in place.
    :attr:`samples` is the ``(t, v)`` view of the two, built on read.

    Readers on other threads (the live server's ``/query`` and
    ``/slo``) take no lock, so the columns are kept readable at every
    instant: both live in the one ``columns`` tuple, which compaction
    and :meth:`TimeSeriesDB.merge_from` replace whole; an append adds
    the value before the time; and a reader indexes only below the
    length of the ``times`` it took.

    ``ordered`` is True while the samples are non-decreasing in time —
    the live path's case, and the state :meth:`TimeSeriesDB.merge_from`
    restores by sorting.  Ordered series answer :meth:`window` and
    :meth:`latest` by bisection; an out-of-order append (a second grid
    item replaying earlier logical times) falls back to a linear scan.
    """

    __slots__ = (
        "name", "labels", "source", "columns", "compactions",
        "points_dropped", "ordered",
    )

    def __init__(self, name: str, labels: LabelsKey, source: str = "feed") -> None:
        self.name = name
        self.labels = labels
        self.source = source
        self.columns: Tuple[List[float], List[float]] = ([], [])
        self.compactions = 0
        self.points_dropped = 0
        self.ordered = True

    @property
    def times(self) -> List[float]:
        return self.columns[0]

    @property
    def values(self) -> List[float]:
        return self.columns[1]

    @property
    def samples(self) -> List[Sample]:
        """The ring as ``(t, v)`` pairs, oldest first (a copy)."""
        return list(zip(*self.columns))

    def _compact(self) -> int:
        """Halve the resolution of the oldest half of the ring.

        Deterministic stride-2 decimation: given the same append
        sequence, every run compacts identically — the property the
        worker-merge byte-identity tests rely on.  Returns the number
        of samples the decimation discarded.
        """
        times, values = self.columns
        half = len(times) // 2
        self.columns = (
            times[0:half:2] + times[half:], values[0:half:2] + values[half:]
        )
        dropped = len(times) - len(self.columns[0])
        self.compactions += 1
        self.points_dropped += dropped
        return dropped

    # ------------------------------------------------------------------
    def latest(self, at: float, staleness: float) -> Optional[Sample]:
        """The newest sample with ``t <= at`` and ``t > at - staleness``."""
        times, values = self.columns
        if self.ordered:
            index = bisect_right(times, at) - 1
        else:
            index = len(times) - 1
            while index >= 0 and not times[index] <= at:
                index -= 1
        if index >= 0 and times[index] > at - staleness:
            return (times[index], values[index])
        return None

    def span(
        self, at: float, duration: float
    ) -> Tuple[List[float], List[float], int, int]:
        """``(times, values, start, end)``: columns whose indices
        ``[start, end)`` hold the samples with ``at - duration < t <=
        at``, oldest first — the arguments of a range function.  An
        ordered series bisects its own columns; an unordered one
        gathers the matching samples into new ones."""
        times, values = self.columns
        if self.ordered:
            end = len(times)
            if end and times[end - 1] > at:  # not the live case
                end = bisect_right(times, at)
            return times, values, bisect_right(times, at - duration, 0, end), end
        keep = [i for i, t in enumerate(times) if at - duration < t <= at]
        return [times[i] for i in keep], [values[i] for i in keep], 0, len(keep)

    def window(
        self, at: float, duration: float
    ) -> Tuple[List[float], List[float]]:
        """The ``(times, values)`` columns of the samples with
        ``at - duration < t <= at``, oldest first (a copy)."""
        times, values, start, end = self.span(at, duration)
        return times[start:end], values[start:end]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": [list(pair) for pair in self.labels],
            "source": self.source,
            "compactions": self.compactions,
            "samples": [list(pair) for pair in zip(*self.columns)],
        }

    def __repr__(self) -> str:
        return (
            f"Series({self.name!r}, labels={dict(self.labels)!r}, "
            f"n={len(self.columns[0])})"
        )


class TimeSeriesDB:
    """The bounded telemetry-history store.

    Parameters
    ----------
    retention:
        Maximum samples per series; exceeding it triggers one
        deterministic stride-2 compaction of the oldest half.
    staleness:
        Instant-selector lookback window in seconds.
    record_snapshots:
        When False the per-period :meth:`tick` becomes a no-op — shard
        bundles in :mod:`repro.parallel` disable it because a shard's
        registry holds partial counters and the parent reconstructs
        the event-loss series at merge time instead.
    """

    def __init__(
        self,
        retention: int = 4096,
        staleness: float = DEFAULT_STALENESS_SECONDS,
        record_snapshots: bool = True,
    ) -> None:
        if retention < 8:
            raise ValueError(f"retention must be >= 8 samples: {retention}")
        self.retention = int(retention)
        self.staleness = float(staleness)
        self.record_snapshots = record_snapshots
        self._series: Dict[Tuple[str, LabelsKey], Series] = {}
        #: Per-name series lists in label order — the index a query's
        #: selector reads instead of filtering and sorting every series.
        self._by_name: Dict[str, List[Series]] = {}
        #: Compiled query's selector -> the series it selects (keyed by
        #: selector, so an SLO's burn windows share one entry).  Only
        #: compiled queries (rules, SLOs) are cached, which bounds it;
        #: :meth:`_add_series` replaces it.
        self._selections: Dict[Any, List[Series]] = {}
        self._registry: Optional[Any] = None
        self._events: Optional[Any] = None
        #: The per-period snapshot's bindings (:meth:`_bind_snapshot`):
        #: the event-stat series, then one series per bound registry
        #: instrument, in the order :meth:`tick` reads their values.
        #: ``_snapshot_generation`` is None until bound and after a
        #: :meth:`bind`.
        self._snapshot_series: Tuple[Series, ...] = ()
        self._snapshot_instruments: Tuple[Any, ...] = ()
        self._snapshot_generation: Optional[int] = None
        self._event_series: Tuple[Series, ...] = ()
        self._last_tick = float("-inf")
        self.samples_appended = 0
        #: Store-wide retention accounting (the ``tsdb_compactions_total``
        #: / ``tsdb_points_dropped_total`` counters the resource ledger
        #: samples): how many stride-2 compactions have run across every
        #: series, and how many samples those compactions discarded.
        self.compactions_total = 0
        self.points_dropped_total = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def bind(
        self, registry: Optional[Any] = None, events: Optional[Any] = None
    ) -> None:
        """Attach the registry/event log :meth:`tick` snapshots read
        (done once by :class:`~repro.obs.runtime.Instrumentation`).  An
        absent component stays unbound, so a tick skips it without a
        call."""
        if registry is not None:
            self._registry = registry
        if events is not None:
            self._events = events
        self._snapshot_generation = None

    def append(
        self,
        name: str,
        labels: Optional[Dict[str, Any]],
        t: float,
        value: float,
        source: str = "feed",
    ) -> Series:
        """Record one sample for ``name{labels}`` at logical time *t*
        and return the series, created (with *source*) if absent.

        A per-period writer keeps the returned series as its handle and
        appends every later sample through :meth:`append_at`, so the
        key is built once; taking the handle from the first append
        means no writer leaves an empty series behind."""
        key = (name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._add_series(key, source)
        self.append_at(t, ((series, value),))
        return series

    def append_at(
        self, t: float, points: Iterable[Tuple[Series, float]]
    ) -> None:
        """Record one sample at logical time *t* on each ``(series,
        value)`` pair, the series returned by an earlier :meth:`append`
        — the one append path, retention compaction and its accounting
        included."""
        t = float(t)
        retention = self.retention
        appended = 0
        for series, value in points:
            times, values = series.columns
            if times and not t >= times[-1]:
                series.ordered = False
            values.append(float(value))
            times.append(t)
            appended += 1
            if len(times) > retention:
                dropped = series._compact()
                if dropped:
                    self.compactions_total += 1
                    self.points_dropped_total += dropped
        self.samples_appended += appended

    def _add_series(self, key: Tuple[str, LabelsKey], source: str) -> Series:
        series = self._series[key] = Series(key[0], key[1], source=source)
        insort(
            self._by_name.setdefault(key[0], []), series,
            key=lambda entry: entry.labels,
        )
        # Replaced only after the index holds the new series: a reader
        # on another thread (the live server's /slo) that selected
        # before this point stored into the old cache, not this one.
        self._selections = {}
        return series

    def tick(
        self, t: float, points: Iterable[Tuple[Series, float]] = ()
    ) -> None:
        """The per-period write (live path): one :meth:`append_at` at
        time *t* of the pipeline snapshot — the event-loss counters and
        every counter/gauge child of the bound registry — followed by
        *points*, the ``(series, value)`` pairs of the period's own
        feed samples (:meth:`TrajectoryWriter.points`).  A tick that
        rebinds the snapshot (:meth:`_bind_snapshot`) appends it sample
        by sample.

        Called by the detector at the *start* of each observation
        period's bookkeeping, so the sampled values describe the
        pipeline state **before** that period's own emissions — the
        exact semantics the parallel merge reconstructs by ticking
        before re-emitting each period event.  The snapshot is taken
        once per watermark: a second agent closing the same period
        (or a replayed earlier one) writes only its *points*.
        """
        if self.record_snapshots and t > self._last_tick:
            self._last_tick = t
            registry = self._registry
            if self._snapshot_generation is None or (
                registry is not None
                and registry.generation != self._snapshot_generation
            ):
                self._bind_snapshot(t)
            else:
                events = self._events
                values = (
                    [events.events_emitted, events.dropped]
                    if events is not None
                    else []
                )
                values += map(_instrument_value, self._snapshot_instruments)
                points = chain(zip(self._snapshot_series, values), points)
        self.append_at(t, points)

    def tick_events(self, t: float) -> None:
        """Event-stats-only tick — what
        :func:`repro.obs.merge.merge_event_groups` drives while
        re-emitting shard events in grid order.  Registry snapshots are
        deliberately *not* taken here: at merge time the parent
        registry already holds end-of-run totals, and sampling those at
        historical timestamps would fabricate history."""
        if self.record_snapshots and t > self._last_tick:
            self._last_tick = t
            if self._events is not None:
                self._tick_events(t)

    def _tick_events(self, t: float) -> None:
        events = self._events
        values = (events.events_emitted, events.dropped)
        if self._event_series:
            self.append_at(t, zip(self._event_series, values))
        else:
            self._event_series = tuple(
                self.append(name, None, t, value)
                for name, value in zip(_EVENT_STAT_SERIES, values)
            )

    def _bind_snapshot(self, t: float) -> None:
        """Take the snapshot at *t* while binding its series: the event
        stats; every counter/gauge child of the bound registry except
        the families in :data:`_SNAPSHOT_SKIPPED`, as
        ``source="registry"`` series.  Each sample goes through
        :meth:`append`, which returns its series.  Rebound only when
        the registry gained a family or child since the last tick;
        until then each tick reads the bound instruments straight into
        their series."""
        bound: List[Series] = []
        instruments: List[Any] = []
        registry = self._registry
        if self._events is not None:
            self._tick_events(t)
            bound.extend(self._event_series)
        # Read before the walk: a family or child created during it (a
        # scrape thread folding profiler counters) still forces the
        # next tick to rebind.
        self._snapshot_generation = (
            registry.generation if registry is not None else 0
        )
        if registry is not None:
            for family in registry.collect():
                name = family.name
                if (
                    family.kind not in ("counter", "gauge")
                    or name in _SNAPSHOT_SKIPPED
                ):
                    continue
                children = [] if family.labelnames else [(None, family)]
                children += [
                    (dict(zip(family.labelnames, key)), child)
                    for key, child in list(family._children.items())
                ]
                for labels, each in children:
                    bound.append(
                        self.append(name, labels, t, each._value, "registry")
                    )
                    instruments.append(each)
        self._snapshot_series = tuple(bound)
        self._snapshot_instruments = tuple(instruments)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def series(
        self, name: Optional[str] = None, source: Optional[str] = None
    ) -> List[Series]:
        """Stored series in canonical (name, labels) order."""
        names = (name,) if name is not None else self.names()
        return [
            series
            for each in names
            for series in self._by_name.get(each, ())
            if source is None or series.source == source
        ]

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def points_retained(self) -> int:
        """Samples currently held across every series — the live
        occupancy number the resource ledger tracks against retention
        (``samples_appended`` only ever grows; this is the bounded
        figure that must flatten out)."""
        return sum(len(series.times) for series in self._series.values())

    def watermarks(self) -> List[float]:
        """Every distinct sample time, ascending — the replay grid
        :func:`repro.obs.alerts.replay_rules` evaluates over."""
        times = {
            t
            for series in self._series.values()
            for t in series.times
        }
        return sorted(times)

    def last_time(self) -> Optional[float]:
        newest = None
        for series in self._series.values():
            if series.times:
                t = series.times[-1]
                if newest is None or t > newest:
                    newest = t
        return newest

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return (
            f"TimeSeriesDB(series={len(self._series)}, "
            f"samples={self.samples_appended}, retention={self.retention})"
        )

    # ------------------------------------------------------------------
    # Serialization / merge
    # ------------------------------------------------------------------
    def to_dict(self, include_registry: bool = True) -> Dict[str, Any]:
        """The store as plain JSON-able dicts, series in canonical
        order (the shard-shipping and test-comparison format).
        ``include_registry=False`` leaves out the registry snapshot
        series, which describe the recording bundle rather than the
        detection run."""
        return {
            "retention": self.retention,
            "series": [
                series.to_dict()
                for series in self.series()
                if include_registry or series.source != "registry"
            ],
        }

    def merge_from(self, snapshot: Dict[str, Any]) -> None:
        """Fold one :meth:`to_dict` snapshot in (see
        :func:`~repro.obs.merge.merge_tsdb_snapshots`)."""
        for entry in snapshot.get("series", ()):
            key_labels: LabelsKey = tuple(
                (str(k), str(v)) for k, v in entry.get("labels", ())
            )
            key = (entry["name"], key_labels)
            series = self._series.get(key)
            if series is None:
                series = self._add_series(key, entry.get("source", "feed"))
            for t, value in entry.get("samples", ()):
                self.append_at(t, ((series, value),))
            # One stable sort of the positions by time reorders both
            # columns: new samples interleave by logical time, with
            # earlier-merged shards winning ties — deterministic for a
            # fixed merge order.
            times, values = series.columns
            order = sorted(range(len(times)), key=times.__getitem__)
            series.columns = (
                [times[i] for i in order], [values[i] for i in order]
            )
            series.ordered = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        expr: Union[str, Query],
        at: Optional[float] = None,
        peak: bool = False,
    ) -> Union[List[Dict[str, Any]], Optional[float]]:
        """Evaluate a PromQL-lite expression as an instant vector.

        *expr* is either text, parsed and selected on every call (the
        ad-hoc ``/query`` and ``repro query`` path), or a :class:`Query`
        compiled once by :func:`parse_query` (alert rules and SLOs),
        whose selected series are cached until a series is added.
        Returns ``[{"labels": {...}, "value": v}, ...]`` sorted by
        labels.  ``at`` defaults to the newest sample time in the
        store (an empty store evaluates to an empty vector).

        With *peak*, returns only the largest value of that vector, or
        None when it is empty (:meth:`Query.peak`): all an alert rule
        reads, so no vector is built.
        """
        if isinstance(expr, Query):
            parsed, selected = expr, self.select(expr)
        else:
            parsed = parse_query(expr)
            selected = parsed.selector.select(self)
        if selected and at is None:
            at = self.last_time()
        if not selected or at is None:
            return None if peak else []
        if peak:
            return parsed.peak(selected, float(at), self.staleness)
        return parsed.over(selected, float(at), self.staleness)

    def select(self, query: Query) -> List[Series]:
        """The series compiled *query*'s selector picks, cached until a
        series is added (the list is shared: do not mutate it)."""
        # Taken before selecting: see _add_series.
        selections = self._selections
        selected = selections.get(query.selector)
        if selected is None:
            selected = selections[query.selector] = query.selector.select(self)
        return selected


class TrajectoryWriter:
    """Appends one agent's :data:`DETECTOR_SERIES` point per period.

    The one writer of the detector trajectory: the live detector hands
    :meth:`points` to its period's :meth:`TimeSeriesDB.tick`
    (:meth:`repro.core.syndog.SynDog._emit_record`);
    :func:`tsdb_from_events` and the soak replay call :meth:`write`.
    The five series are bound at the first point, so a writer that
    never writes leaves no empty series behind."""

    __slots__ = ("_tsdb", "_labels", "_series")

    def __init__(self, tsdb: TimeSeriesDB, agent: str) -> None:
        self._tsdb = tsdb
        self._labels = {"agent": agent}
        self._series: Tuple[Series, ...] = ()

    def points(
        self,
        t: float,
        delta: float,
        x: float,
        statistic: float,
        alarm: bool,
        degraded: bool,
    ) -> Iterable[Tuple[Series, float]]:
        """The ``(series, value)`` pairs of the point at *t*, for one
        :meth:`TimeSeriesDB.append_at` (or :meth:`TimeSeriesDB.tick`)
        at *t*.  The first point binds the series: it is appended here,
        through :meth:`TimeSeriesDB.append`, and no pairs are left."""
        values = (
            delta, x, statistic,
            1.0 if alarm else 0.0, 1.0 if degraded else 0.0,
        )
        if self._series:
            return zip(self._series, values)
        tsdb, labels = self._tsdb, self._labels
        self._series = tuple(
            tsdb.append(name, labels, t, value)
            for name, value in zip(DETECTOR_SERIES, values)
        )
        return ()

    def write(
        self,
        t: float,
        delta: float,
        x: float,
        statistic: float,
        alarm: bool,
        degraded: bool,
    ) -> None:
        self._tsdb.append_at(
            t, self.points(t, delta, x, statistic, alarm, degraded)
        )


# ----------------------------------------------------------------------
# PromQL-lite
# ----------------------------------------------------------------------
class QueryError(ValueError):
    """A malformed or unsupported query expression."""


_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(s|m|h)?$")

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"|(?P<string>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<op>!=|>=|<=|==|[><*/+\-{}\[\](),=])"
    r")"
)


def parse_duration(text: str) -> float:
    """``"30"``/``"30s"``/``"5m"``/``"1h"`` → seconds."""
    match = _DURATION_RE.match(text.strip())
    if not match:
        raise QueryError(f"invalid duration: {text!r}")
    value = float(match.group(1))
    unit = match.group(2) or "s"
    return value * {"s": 1.0, "m": 60.0, "h": 3600.0}[unit]


def _tokenize(expr: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(expr):
        match = _TOKEN_RE.match(expr, position)
        if match is None or match.end() == position:
            remainder = expr[position:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot parse query near {remainder!r}")
        position = match.end()
        for kind in ("number", "name", "string", "op"):
            text = match.group(kind)
            if text is not None:
                tokens.append((kind, text))
                break
    return tokens


class _Matcher:
    __slots__ = ("label", "op", "value")

    def __init__(self, label: str, op: str, value: str) -> None:
        self.label = label
        self.op = op
        self.value = value

    def matches(self, labels: LabelsKey) -> bool:
        actual = dict(labels).get(self.label)
        if self.op == "=":
            return actual == self.value
        return actual != self.value


class _Selector:
    __slots__ = ("name", "matchers")

    def __init__(self, name: str, matchers: Sequence[_Matcher]) -> None:
        self.name = name
        self.matchers = tuple(matchers)

    def select(self, tsdb: TimeSeriesDB) -> List[Series]:
        return [
            series
            for series in tsdb.series(self.name)
            if all(matcher.matches(series.labels) for matcher in self.matchers)
        ]


#: A range function reduces the window ``[start, end)`` of a series'
#: ``(times, values)`` columns to one value, or None when the window is
#: too short for it.  It reads the columns in place: only a reduction
#: over every value in the window slices them.
_RangeFunc = Callable[[List[float], List[float], int, int], Optional[float]]

_RANGE_FUNCS: Dict[str, _RangeFunc] = {}


def _range_func(name: str):
    def register(fn):
        _RANGE_FUNCS[name] = fn
        return fn

    return register


@_range_func("rate")
def _rate(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    if end - start < 2 or times[end - 1] <= times[start]:
        return None
    return (values[end - 1] - values[start]) / (times[end - 1] - times[start])


@_range_func("increase")
def _increase(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return values[end - 1] - values[start] if end - start >= 2 else None


@_range_func("avg_over_time")
def _avg(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return sum(values[start:end]) / (end - start) if end > start else None


@_range_func("max_over_time")
def _max(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return max(values[start:end]) if end > start else None


@_range_func("min_over_time")
def _min(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return min(values[start:end]) if end > start else None


@_range_func("sum_over_time")
def _sum(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return sum(values[start:end]) if end > start else None


@_range_func("count_over_time")
def _count(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return float(end - start) if end > start else None


@_range_func("last_over_time")
def _last(
    times: List[float], values: List[float], start: int, end: int
) -> Optional[float]:
    return values[end - 1] if end > start else None


_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


class Query:
    """A parsed PromQL-lite expression, compiled once: the range
    function and comparator are resolved here, so :meth:`peak` does no
    parsing or table lookups."""

    __slots__ = (
        "expr", "func", "selector", "duration", "cmp", "threshold",
        "_range_fn", "_compare",
    )

    def __init__(
        self,
        expr: str,
        func: Optional[str],
        selector: _Selector,
        duration: Optional[float],
        cmp: Optional[str],
        threshold: Optional[float],
    ) -> None:
        self.expr = expr
        self.func = func
        self.selector = selector
        self.duration = duration
        self.cmp = cmp
        self.threshold = threshold
        self._range_fn = None if func is None else _RANGE_FUNCS[func]
        self._compare = None if cmp is None else _COMPARATORS[cmp]

    def with_duration(self, duration: float) -> "Query":
        """This range query over a different window, without re-parsing
        (the SLO engine's burn windows and full-horizon budget query)."""
        return Query(
            self.expr, self.func, self.selector, duration, self.cmp,
            self.threshold,
        )

    def peak(
        self, selected: Sequence[Series], at: float, staleness: float
    ) -> Optional[float]:
        """The largest value of this query's instant vector at *at* over
        the *selected* series, or None when it is empty — the one
        evaluator: alert rules (live and replayed) read it through
        :meth:`TimeSeriesDB.query` with ``peak=True``, and :meth:`over`
        builds the vector from it one series at a time.  A range query
        reduces its window (:meth:`Series.span`) in place."""
        fn, compare, threshold = self._range_fn, self._compare, self.threshold
        peak = None
        for series in selected:
            if fn is None:
                sample = series.latest(at, staleness)
                value = None if sample is None else sample[1]
            else:
                value = fn(*series.span(at, self.duration))
            if (
                value is not None
                and (compare is None or compare(value, threshold))
                and (peak is None or value > peak)
            ):
                peak = value
        return peak

    def over(
        self, selected: Sequence[Series], at: float, staleness: float
    ) -> List[Dict[str, Any]]:
        """The instant vector at *at* over the series the selector
        picked (:meth:`TimeSeriesDB.query` selects, caching compiled
        queries' selections): each series' value is its own
        :meth:`peak`."""
        results: List[Dict[str, Any]] = []
        for series in selected:
            value = self.peak((series,), at, staleness)
            if value is not None:
                results.append({"labels": dict(series.labels), "value": value})
        return results


class _Parser:
    def __init__(self, expr: str) -> None:
        self.expr = expr
        self.tokens = _tokenize(expr)
        self.position = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self, kind: Optional[str] = None, text: Optional[str] = None) -> str:
        token = self.peek()
        if token is None:
            raise QueryError(f"unexpected end of query: {self.expr!r}")
        if kind is not None and token[0] != kind:
            raise QueryError(
                f"expected {kind}, got {token[1]!r} in {self.expr!r}"
            )
        if text is not None and token[1] != text:
            raise QueryError(
                f"expected {text!r}, got {token[1]!r} in {self.expr!r}"
            )
        self.position += 1
        return token[1]

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token[1] == text:
            self.position += 1
            return True
        return False

    # ------------------------------------------------------------------
    def parse(self) -> Query:
        func: Optional[str] = None
        duration: Optional[float] = None
        name = self.take(kind="name")
        if name in _RANGE_FUNCS:
            func = name
            self.take(text="(")
            selector = self.parse_selector()
            self.take(text="[")
            duration = self.parse_range_duration()
            self.take(text="]")
            self.take(text=")")
        else:
            selector = self.parse_selector(name=name)
        cmp: Optional[str] = None
        threshold: Optional[float] = None
        token = self.peek()
        if token is not None and token[1] in _COMPARATORS:
            cmp = self.take()[:]
            threshold = self.parse_arithmetic()
        if self.peek() is not None:
            raise QueryError(
                f"trailing tokens after expression: {self.expr!r}"
            )
        return Query(self.expr, func, selector, duration, cmp, threshold)

    def parse_selector(self, name: Optional[str] = None) -> _Selector:
        if name is None:
            name = self.take(kind="name")
        matchers: List[_Matcher] = []
        if self.accept("{"):
            while not self.accept("}"):
                label = self.take(kind="name")
                op = self.take(kind="op")
                if op not in ("=", "!="):
                    raise QueryError(
                        f"unsupported label matcher {op!r} in {self.expr!r}"
                    )
                raw = self.take(kind="string")
                value = raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                matchers.append(_Matcher(label, op, value))
                self.accept(",")
        return _Selector(name, matchers)

    def parse_range_duration(self) -> float:
        number = self.take(kind="number")
        token = self.peek()
        unit = ""
        if token is not None and token[0] == "name" and token[1] in ("s", "m", "h"):
            unit = self.take()
        return parse_duration(number + unit)

    def parse_arithmetic(self) -> float:
        """A constant left-associative product/sum — enough for rule
        thresholds like ``0.8 * 1.05``."""
        value = float(self.take(kind="number"))
        while True:
            token = self.peek()
            if token is None or token[1] not in ("*", "/", "+", "-"):
                return value
            op = self.take()
            rhs = float(self.take(kind="number"))
            if op == "*":
                value *= rhs
            elif op == "/":
                value /= rhs
            elif op == "+":
                value += rhs
            else:
                value -= rhs


def parse_query(expr: str) -> Query:
    """Parse one PromQL-lite expression (raises :class:`QueryError`)
    into a :class:`Query` that can be evaluated any number of times."""
    if not expr or not expr.strip():
        raise QueryError("empty query expression")
    return _Parser(expr).parse()


# ----------------------------------------------------------------------
# Offline reconstruction and merge helpers
# ----------------------------------------------------------------------
def tsdb_from_events(
    events: Iterable[Dict[str, Any]],
    retention: int = 4096,
) -> TimeSeriesDB:
    """Rebuild a detector TSDB from an events JSONL stream.

    Every ``period`` event becomes one sample per detector series
    (ΔSYN, X_n, y_n, alarm, degraded), stamped with the period's end
    time; the event's own ``seq`` reconstructs the
    ``obs_events_emitted_total`` watermark exactly as the live tick
    recorded it (drop counts are not recoverable from a JSONL file —
    whatever was dropped is precisely what is not in it).  A
    ``fleet_rollup`` event (:meth:`repro.router.fleet.Federation`)
    re-appends its ``fleet_*`` samples verbatim, so the fleet alert
    rules replay offline exactly as they evaluated live."""
    tsdb = TimeSeriesDB(retention=retention)
    writers: Dict[str, TrajectoryWriter] = {}
    last_tick = float("-inf")
    for event in events:
        if event.get("event") == "fleet_rollup":
            t = float(event.get("time", 0.0))
            series = event.get("series") or {}
            for name in series:
                if str(name).startswith("fleet_"):
                    tsdb.append(str(name), None, t, float(series[name]))
            continue
        if event.get("event") != "period":
            continue
        agent = str(event.get("agent", "unknown"))
        t = float(event.get("end_time", 0.0))
        if "seq" in event and t > last_tick:
            last_tick = t
            tsdb.append(
                "obs_events_emitted_total", None, t, float(event["seq"])
            )
        writer = writers.get(agent)
        if writer is None:
            writer = writers[agent] = TrajectoryWriter(tsdb, agent)
        writer.write(
            t,
            float(event.get("syn", 0)) - float(event.get("synack", 0)),
            event.get("x", 0.0),
            event.get("statistic", 0.0),
            bool(event.get("alarm")),
            bool(event.get("degraded")),
        )
    return tsdb
