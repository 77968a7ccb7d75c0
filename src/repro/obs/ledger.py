"""Resource ledger: bounded-structure occupancy as time series.

Every observability structure in this repo is *bounded by design* —
the TSDB compacts past its retention, the flight recorder rings, alert
contexts live in a fixed deque, rollups hold K counters — but a claim
of boundedness is only production-grade once it is **measured over
days**.  The ledger does exactly that: :func:`collect_occupancy`
snapshots the live occupancy of each bounded structure, and
:func:`sample` appends those numbers into the TSDB itself as
``obs_ledger_*`` series.  A soak run then *proves* flat memory by
comparing per-day high-water marks of the ledger series
(:func:`ledger_high_water` / :func:`ledger_flatness`) — the
BENCH_soak.json gate in CI.

All ledger quantities are functions of logical state, not wall clock,
so ledger series merge and byte-compare across worker counts like any
other feed series.  Counters that grow *by contract* (compaction and
drop totals, alert transitions) are tracked for visibility but listed
in :data:`MONOTONE_SERIES` so the flatness gate skips them — a soak
that compacts every epoch must see those climb.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

__all__ = [
    "collect_occupancy",
    "sample",
    "ledger_high_water",
    "ledger_flatness",
    "MONOTONE_SERIES",
    "SATURATING_SERIES",
    "DAY_SECONDS",
]

#: Simulated seconds per ledger "day" bucket.
DAY_SECONDS = 86400.0

#: Ledger series that are cumulative counters — they grow for the
#: lifetime of the store by contract, so the flatness gate must not
#: treat their growth as a leak.
MONOTONE_SERIES: FrozenSet[str] = frozenset(
    {
        "obs_ledger_tsdb_compactions",
        "obs_ledger_tsdb_points_dropped",
        "obs_ledger_alert_transitions",
    }
)

#: Ledger series backed by a hard-capped structure (a ``deque`` with a
#: constant ``maxlen``) that fills slowly — e.g. alarm contexts arrive
#: a few per day, so a multi-day soak sees the deque still climbing
#: toward its small constant cap.  Structurally they cannot leak, so
#: the flatness gate skips them too (their caps are asserted in unit
#: tests instead).
SATURATING_SERIES: FrozenSet[str] = frozenset(
    {"obs_ledger_recorder_contexts"}
)

#: The store and recorder quantities every sample carries; a bundle
#: without a store or recorder reads 0 for its share.
_STORE_KEYS = (
    "obs_ledger_tsdb_points",
    "obs_ledger_tsdb_series",
    "obs_ledger_tsdb_compactions",
    "obs_ledger_tsdb_points_dropped",
    "obs_ledger_recorder_ring",
    "obs_ledger_recorder_contexts",
)


def collect_occupancy(
    obs: Any,
    alerts: Optional[Any] = None,
    events_baseline: int = 0,
    rollup: Optional[Any] = None,
) -> Dict[str, float]:
    """Current occupancy of every bounded structure, as a flat dict.

    *obs* is an :class:`~repro.obs.runtime.Instrumentation` bundle;
    *alerts* overrides ``obs.alerts`` (a soak passes its replayed
    manager).  *events_baseline* is subtracted from the emitted-event
    count so a long-lived log reports sink *depth since the last
    mark* — the quantity that must stay flat — rather than lifetime
    throughput.  Keys are the ``obs_ledger_*`` series names
    :func:`sample` writes.
    """
    occupancy: Dict[str, float] = dict.fromkeys(_STORE_KEYS, 0.0)
    tsdb = obs.tsdb
    if tsdb is not None:
        occupancy["obs_ledger_tsdb_points"] = float(tsdb.points_retained())
        occupancy["obs_ledger_tsdb_series"] = float(len(tsdb.series()))
        occupancy["obs_ledger_tsdb_compactions"] = float(
            tsdb.compactions_total
        )
        occupancy["obs_ledger_tsdb_points_dropped"] = float(
            tsdb.points_dropped_total
        )
    recorder = obs.recorder
    if recorder is not None:
        occupancy["obs_ledger_recorder_ring"] = float(
            sum(len(recorder.window(agent)) for agent in recorder.agents)
        )
        occupancy["obs_ledger_recorder_contexts"] = float(
            len(recorder.contexts)
        )
    manager = alerts if alerts is not None else obs.alerts
    if manager is not None:
        occupancy["obs_ledger_alert_rules"] = float(len(manager.rules))
        occupancy["obs_ledger_alert_transitions"] = float(
            len(manager.transitions)
        )
    events = obs.events
    if events is not None:
        occupancy["obs_ledger_event_sink_depth"] = float(
            events.events_emitted - events_baseline
        )
    if rollup is not None:
        occupancy["obs_ledger_rollup_digests"] = float(
            len(rollup.digests)
            + sum(len(topk) for topk in rollup.top.values())
        )
    return occupancy


def sample(
    obs: Any,
    t: float,
    alerts: Optional[Any] = None,
    events_baseline: int = 0,
    rollup: Optional[Any] = None,
    into: Optional[Any] = None,
    labels: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Take one ledger sample at logical time *t*: collect occupancy
    and append each quantity in sorted-name order (so
    first-registration series order is deterministic).

    Samples land in *into* when given, else in ``obs.tsdb`` —
    separating the **observed** store from the **recording** store
    matters when the observed one is itself under occupancy test (a
    self-sample would add a point per period to the structure it is
    measuring).  *labels* distinguishes ledgers of different bundles in
    one store (the soak labels its live-parent sample ``store=live``);
    *extra* merges additional pre-computed quantities (e.g. a per-epoch
    event count a replay knows but the bundle does not).  Returns the
    occupancy dict."""
    occupancy = collect_occupancy(
        obs, alerts=alerts, events_baseline=events_baseline, rollup=rollup
    )
    if extra:
        occupancy.update(extra)
    target = into if into is not None else obs.tsdb
    if target is not None:
        for name in sorted(occupancy):
            target.append(name, labels or {}, float(t), occupancy[name])
    return occupancy


def ledger_high_water(
    tsdb: Any, day_seconds: float = DAY_SECONDS
) -> Dict[str, Dict[int, float]]:
    """Per-series, per-simulated-day high-water marks of the ledger.

    Buckets every retained ``obs_ledger_*`` sample by
    ``int(t // day_seconds)`` and keeps the max per bucket.  Retention
    compaction thins *early* days first, but the max of a subsample is
    at most the true max, and the flatness gate only compares maxima —
    a leak still shows as growth.
    """
    marks: Dict[str, Dict[int, float]] = {}
    for series in tsdb.series():
        if not series.name.startswith("obs_ledger_"):
            continue
        key = series.name
        if series.labels:
            rendered = ",".join(f'{k}="{v}"' for k, v in series.labels)
            key = f"{series.name}{{{rendered}}}"
        per_day = marks.setdefault(key, {})
        for t, value in series.samples:
            day = int(t // day_seconds)
            if day not in per_day or value > per_day[day]:
                per_day[day] = value
    return marks


def ledger_flatness(
    tsdb: Any, day_seconds: float = DAY_SECONDS
) -> Dict[str, Any]:
    """The soak's memory-flatness verdict.

    For every non-monotone ledger series with samples in at least two
    day buckets, the relative growth of the high-water mark between
    the first and last simulated day.  ``max_growth`` is the worst
    over those series (0.0 when nothing grew or only one day is
    retained) — the number CI gates at 5%.
    """
    marks = ledger_high_water(tsdb, day_seconds=day_seconds)
    series: Dict[str, Any] = {}
    max_growth = 0.0
    exempt = MONOTONE_SERIES | SATURATING_SERIES
    for name in sorted(marks):
        per_day = marks[name]
        days = sorted(per_day)
        first, last = per_day[days[0]], per_day[days[-1]]
        if first > 0:
            growth = (last - first) / first
        else:
            growth = 0.0 if last <= 0 else float("inf")
        base = name.split("{", 1)[0]
        entry = {
            "first_day": days[0],
            "last_day": days[-1],
            "first_high_water": first,
            "last_high_water": last,
            "growth": round(growth, 9) if growth != float("inf") else None,
            "gated": base not in exempt and len(days) > 1,
        }
        series[name] = entry
        if entry["gated"]:
            max_growth = max(max_growth, growth)
    return {
        "day_seconds": day_seconds,
        "series": series,
        "max_growth": (
            round(max_growth, 9) if max_growth != float("inf") else None
        ),
    }
