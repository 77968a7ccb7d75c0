"""Observability for the detection path: metrics, events, profiling.

The paper's agent is O(1)-state and meant to sit on a busy leaf router;
operating one means watching it.  This package is a dependency-free
observability layer threaded through the whole pipeline —
classification, sniffing, CUSUM, routers, experiments — with two
export formats (Prometheus text exposition and JSONL event streams)
and a hard rule: **zero cost when disabled**.  The default everywhere
is :data:`~repro.obs.runtime.NULL_INSTRUMENTATION`, whose component
slots all hold ``None``; components bind their instruments to ``None``
at construction so the hot path pays a single pointer check.

Modules
-------
``metrics``
    Counter / Gauge / Histogram families with labeled children and a
    get-or-create :class:`MetricsRegistry`.
``events``
    Structured events fanned out to JSONL / in-memory sinks.
``exporters``
    Prometheus text rendering + parsing, JSONL views, profile and
    event-loss folding.
``runtime``
    The :class:`Instrumentation` bundle and :class:`AgentSummary`, the
    running per-agent state every status view reads.  With obs off,
    this is all of the package a process loads.
``recorder``
    The per-agent flight recorder: detector-state ring buffers and
    self-describing ``alarm_context`` events.
``server``
    The live scrape endpoint: ``/metrics`` + ``/healthz`` + ``/events``
    from a daemon-thread HTTP server.
``analyze``
    Offline forensics over events JSONL (``repro report``): alarm
    timelines, detection latency, false-alarm counts, CUSUM traces.
``merge``
    Folding per-shard registries/event groups from
    :mod:`repro.parallel` workers into the parent bundle, plus the
    deterministic (wall-clock-free) projections that byte-identity
    tests compare.
``tsdb``
    Bounded in-memory telemetry history: every per-period detector
    sample plus registry snapshots, with deterministic downsampling,
    worker-merge support and a PromQL-lite query engine.
``alerts``
    Declarative alert rules over the history store:
    pending→firing→resolved lifecycle, builtin watch-the-watchers
    rules, live evaluation and deterministic replay.
``profiler``
    Hot-path per-stage cost attribution (wall/CPU time, packets,
    bytes, allocations) with a deterministic cost-model mode and
    folded-stack / callgrind exports.
``rollup``
    Fleet-scale telemetry: mergeable fixed-bucket quantile digests,
    Space-Saving top-K suspect rankings and population counters —
    the O(K) ``/fleet`` document and the ``repro fleet`` backend.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "alerts": (
        "AlertManager", "AlertRule", "builtin_rules", "profiler_rules",
        "replay_rules", "rules_from_dicts", "rules_from_file",
    ),
    "analyze": (
        "AgentTimeline", "AlarmSpan", "EventsReport", "analyze_events",
        "analyze_files", "render_report",
    ),
    "events": (
        "EventLog", "JsonlSink", "MemorySink", "read_jsonl",
    ),
    "exporters": (
        "export_event_stats", "export_profiler", "parse_prometheus_text",
        "registry_to_dicts", "render_prometheus", "summarize_histograms",
        "write_prometheus",
    ),
    "merge": (
        "canonical_event", "canonical_events", "deterministic_families",
        "merge_event_groups", "merge_rollup_snapshots", "merge_snapshot",
        "merge_snapshots", "merge_tsdb_snapshots", "merged_registry",
        "registry_snapshot", "render_deterministic", "tsdb_snapshot",
    ),
    "metrics": (
        "DEFAULT_LATENCY_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry",
    ),
    "profiler": (
        "COST_MODEL", "PIPELINE_STAGES", "Profiler",
        "StageCost", "StageHandle", "callgrind_format", "folded_stacks",
        "merge_stage_rows", "parse_callgrind", "parse_folded",
        "write_callgrind", "write_folded",
    ),
    "recorder": ("FlightRecorder",),
    "rollup": (
        "DEFAULT_TOP_K", "AgentState", "FleetRollup", "QuantileDigest",
        "SpaceSavingTopK", "rollup_from_events", "synthetic_fleet_states",
    ),
    "runtime": (
        "AgentSummary", "NULL_INSTRUMENTATION", "Instrumentation",
        "enabled_instrumentation", "resolve_instrumentation",
    ),
    "server": ("ObsServer",),
    "tsdb": (
        "QueryError", "TimeSeriesDB", "parse_query", "tsdb_from_events",
    ),
})
