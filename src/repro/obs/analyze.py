"""Offline forensics over events JSONL — the ``repro report`` backend.

A detection run instrumented with :func:`enabled_instrumentation`
leaves behind an events JSONL: one ``period`` event per observation
period (the whole CUSUM trajectory), ``alarm_raised`` /
``alarm_cleared`` transitions and, with the flight recorder on,
self-describing ``alarm_context`` events.  This module reconstructs the
run from that stream alone — no trace, no detector, no pickle:

* per-agent **alarm timelines** (raise/clear times, peak statistic);
* **detection latency** per alarm, measured from CUSUM onset — the
  last period the statistic sat at rest (y_n = 0) before the crossing
  — to the alarm period, the same bracketing
  :mod:`repro.experiments.forensics` applies to in-memory records;
* a **false-alarm count**: alarm spans that clear again after fewer
  than ``min_alarm_periods`` periods are transient threshold grazes,
  not sustained floods (a real attack holds the statistic up for its
  whole duration);
* ASCII-sparkline **CUSUM traces** for eyeballing a run in a terminal;
* optional **per-stage cost attribution**: runs profiled with
  :mod:`repro.obs.profiler` leave a ``profile`` event behind at
  finalize; ``render_report(..., profile=True)`` (the ``repro report
  --profile`` flag) folds every profile event in the log into one
  per-stage cost table via
  :func:`~repro.obs.profiler.merge_stage_rows`;
* a **fleet rollup**: the same mergeable digest document ``repro
  fleet`` and the ``/fleet`` endpoint serve — population counters,
  per-metric quantile digests and top-K suspect lists — replayed from
  the log via :func:`~repro.obs.rollup.rollup_from_events`, so a
  report over a log of many agents still summarizes them in O(K);
* a **soak summary**: logs left behind by ``repro soak`` carry one
  ``soak_epoch`` event per epoch; the report folds them into a
  continuous-operation section (epochs, restores, continuity
  failures, detection hit rate, per-phase timing counts).

Multiple JSONL files analyze into one report (a fleet of runs); agent
keys are prefixed with the file stem when names would collide.
Rendering is text, markdown, or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .events import Event, read_jsonl

__all__ = [
    "AlarmSpan",
    "AgentTimeline",
    "EventsReport",
    "analyze_events",
    "analyze_files",
    "render_report",
]

PathLike = Union[str, Path]

#: Fallback agent key for period events that predate the ``agent``
#: field (PR 1 JSONL stays analyzable).
DEFAULT_AGENT = "agent"

REPORT_FORMATS = ("text", "markdown", "json")


@dataclass(frozen=True)
class AlarmSpan:
    """One contiguous alarm interval on one agent's timeline."""

    agent: str
    raised_period: int
    raised_time: float
    onset_period: int          #: last at-rest period before the raise
    latency_periods: int       #: raised_period - onset_period
    peak_statistic: float
    cleared_period: Optional[int] = None   #: None: still up at end of log
    cleared_time: Optional[float] = None
    false_alarm: bool = False

    @property
    def duration_periods(self) -> Optional[int]:
        if self.cleared_period is None:
            return None
        return self.cleared_period - self.raised_period

    def to_dict(self) -> Dict[str, Any]:
        return {
            "agent": self.agent,
            "raised_period": self.raised_period,
            "raised_time": self.raised_time,
            "onset_period": self.onset_period,
            "latency_periods": self.latency_periods,
            "peak_statistic": self.peak_statistic,
            "cleared_period": self.cleared_period,
            "cleared_time": self.cleared_time,
            "duration_periods": self.duration_periods,
            "false_alarm": self.false_alarm,
        }


@dataclass
class AgentTimeline:
    """Everything reconstructed for one agent."""

    agent: str
    periods: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    times: List[float] = field(default_factory=list)
    statistics: List[float] = field(default_factory=list)
    threshold: Optional[float] = None
    spans: List[AlarmSpan] = field(default_factory=list)
    alarm_contexts: int = 0

    @property
    def detections(self) -> List[AlarmSpan]:
        return [span for span in self.spans if not span.false_alarm]

    @property
    def false_alarms(self) -> List[AlarmSpan]:
        return [span for span in self.spans if span.false_alarm]

    @property
    def first_detection_latency(self) -> Optional[int]:
        detections = self.detections
        return detections[0].latency_periods if detections else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "agent": self.agent,
            "periods": self.periods,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "threshold": self.threshold,
            "max_statistic": max(self.statistics, default=0.0),
            "alarms": len(self.spans),
            "false_alarms": len(self.false_alarms),
            "first_detection_latency_periods": self.first_detection_latency,
            "alarm_contexts": self.alarm_contexts,
            "spans": [span.to_dict() for span in self.spans],
        }


@dataclass
class EventsReport:
    """The whole run (or fleet of runs), reconstructed from JSONL."""

    agents: Dict[str, AgentTimeline]
    events_total: int
    by_kind: Dict[str, int]
    sources: Tuple[str, ...]
    min_alarm_periods: int
    #: Raw ``profile`` event payloads (one per profiled run in the log).
    profiles: Tuple[Dict[str, Any], ...] = ()
    #: Fleet rollup document (:meth:`FleetRollup.to_dict`) replayed
    #: from the log; None when the log carries no period events.
    fleet: Optional[Dict[str, Any]] = None
    #: Raw ``soak_epoch`` event payloads (one per soak epoch in the log).
    soaks: Tuple[Dict[str, Any], ...] = ()

    def soak_summary(self) -> Optional[Dict[str, Any]]:
        """Fold the log's ``soak_epoch`` events into one
        continuous-operation summary (None when the log carries none)."""
        if not self.soaks:
            return None
        attacks = [epoch for epoch in self.soaks if epoch.get("attack")]
        detected = sum(1 for epoch in attacks if epoch.get("detected"))
        latencies = [
            epoch["latency_periods"] for epoch in attacks
            if epoch.get("latency_periods") is not None
        ]
        span_counts: Dict[str, int] = {}
        for epoch in self.soaks:
            for name, count in (epoch.get("span_counts") or {}).items():
                span_counts[name] = span_counts.get(name, 0) + int(count)
        return {
            "epochs": len(self.soaks),
            "attack_epochs": len(attacks),
            "fault_epochs": sum(
                1 for epoch in self.soaks if epoch.get("fault")
            ),
            "detected": detected,
            "missed": len(attacks) - detected,
            "mean_latency_periods": (
                round(sum(latencies) / len(latencies), 3)
                if latencies else None
            ),
            "restores": sum(
                int(epoch.get("restores", 0)) for epoch in self.soaks
            ),
            "continuity_failures": sum(
                1 for epoch in self.soaks
                if not epoch.get("continuity_ok", True)
            ),
            "false_alarms": sum(
                int(epoch.get("false_alarms", 0)) for epoch in self.soaks
            ),
            "degraded_periods": sum(
                int(epoch.get("degraded_periods", 0))
                for epoch in self.soaks
            ),
            "span_counts": dict(sorted(span_counts.items())),
        }

    def merged_profile(self) -> Optional[Dict[str, Any]]:
        """Fold every profile event into one per-stage cost document
        (None when the log carries no profile events)."""
        if not self.profiles:
            return None
        from .profiler import merge_stage_rows

        modes = sorted({
            str(doc.get("mode")) for doc in self.profiles if doc.get("mode")
        })
        return {
            "runs": len(self.profiles),
            "modes": modes,
            "stages": merge_stage_rows(self.profiles),
        }

    @property
    def spans(self) -> List[AlarmSpan]:
        return [span for agent in self.agents.values() for span in agent.spans]

    @property
    def alarm_count(self) -> int:
        return len(self.spans)

    @property
    def false_alarm_count(self) -> int:
        return sum(1 for span in self.spans if span.false_alarm)

    @property
    def detection_count(self) -> int:
        return self.alarm_count - self.false_alarm_count

    @property
    def first_detection_latency(self) -> Optional[int]:
        latencies = [
            agent.first_detection_latency
            for agent in self.agents.values()
            if agent.first_detection_latency is not None
        ]
        return min(latencies) if latencies else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sources": list(self.sources),
            "events_total": self.events_total,
            "by_kind": dict(sorted(self.by_kind.items())),
            "min_alarm_periods": self.min_alarm_periods,
            "alarms": self.alarm_count,
            "detections": self.detection_count,
            "false_alarms": self.false_alarm_count,
            "first_detection_latency_periods": self.first_detection_latency,
            "agents": {
                name: timeline.to_dict()
                for name, timeline in sorted(self.agents.items())
            },
            "profile": self.merged_profile(),
            "fleet": self.fleet,
            "soak": self.soak_summary(),
        }


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
def analyze_events(
    events: Sequence[Event],
    min_alarm_periods: int = 2,
    source: str = "<memory>",
) -> EventsReport:
    """Reconstruct timelines, latencies and false alarms from events.

    Period events are the source of truth (they carry the complete
    trajectory); explicit ``alarm_raised``/``alarm_cleared`` events are
    only counted in ``by_kind``.  An alarm span that clears after fewer
    than *min_alarm_periods* periods is classified a false alarm.
    """
    by_kind: Dict[str, int] = {}
    agents: Dict[str, AgentTimeline] = {}
    open_spans: Dict[str, Dict[str, Any]] = {}
    profiles: List[Dict[str, Any]] = []
    soaks: List[Dict[str, Any]] = []

    ordered = sorted(events, key=lambda event: event.get("seq", 0))
    for event in ordered:
        kind = event.get("event", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "profile":
            profiles.append({
                key: value for key, value in event.items()
                if key not in ("event", "seq", "t")
            })
            continue
        if kind == "soak_epoch":
            soaks.append({
                key: value for key, value in event.items()
                if key not in ("event", "seq", "t")
            })
            continue
        if kind == "alarm_context":
            name = event.get("agent", DEFAULT_AGENT)
            timeline = agents.setdefault(name, AgentTimeline(agent=name))
            timeline.alarm_contexts += 1
            continue
        if kind != "period":
            continue
        name = event.get("agent", DEFAULT_AGENT)
        timeline = agents.setdefault(name, AgentTimeline(agent=name))
        statistic = float(event.get("statistic", 0.0))
        end_time = float(event.get("end_time", 0.0))
        period_index = int(event.get("period_index", timeline.periods))
        alarm = bool(event.get("alarm", False))
        if "threshold" in event:
            timeline.threshold = float(event["threshold"])

        timeline.periods += 1
        if timeline.first_time is None:
            timeline.first_time = float(event.get("start_time", end_time))
        timeline.last_time = end_time
        timeline.times.append(end_time)
        timeline.statistics.append(statistic)

        state = open_spans.get(name)
        if alarm and state is None:
            # Onset: the last period the CUSUM statistic sat at rest
            # before this crossing (the series includes this period at
            # the end, so scan everything before it); with no at-rest
            # period on record, fall back to the earliest one.
            before = timeline.statistics[:-1]
            onset_offset = 0
            for j in range(len(before) - 1, -1, -1):
                if before[j] == 0.0:
                    onset_offset = j
                    break
            onset_period = period_index - (
                len(timeline.statistics) - 1 - onset_offset
            )
            open_spans[name] = {
                "raised_period": period_index,
                "raised_time": end_time,
                "onset_period": onset_period,
                "peak": statistic,
            }
        elif alarm and state is not None:
            state["peak"] = max(state["peak"], statistic)
        elif not alarm and state is not None:
            open_spans.pop(name)
            timeline.spans.append(
                _close_span(
                    name, state, min_alarm_periods,
                    cleared_period=period_index, cleared_time=end_time,
                )
            )

    # Alarms still up when the log ends are sustained detections.
    for name, state in open_spans.items():
        agents[name].spans.append(_close_span(name, state, min_alarm_periods))

    fleet: Optional[Dict[str, Any]] = None
    if by_kind.get("period"):
        from .rollup import rollup_from_events

        fleet = rollup_from_events(ordered).to_dict()

    return EventsReport(
        agents=agents,
        events_total=len(ordered),
        by_kind=by_kind,
        sources=(source,),
        min_alarm_periods=min_alarm_periods,
        profiles=tuple(profiles),
        fleet=fleet,
        soaks=tuple(soaks),
    )


def _close_span(
    agent: str,
    state: Dict[str, Any],
    min_alarm_periods: int,
    cleared_period: Optional[int] = None,
    cleared_time: Optional[float] = None,
) -> AlarmSpan:
    false_alarm = (
        cleared_period is not None
        and cleared_period - state["raised_period"] < min_alarm_periods
    )
    return AlarmSpan(
        agent=agent,
        raised_period=state["raised_period"],
        raised_time=state["raised_time"],
        onset_period=state["onset_period"],
        latency_periods=state["raised_period"] - state["onset_period"],
        peak_statistic=state["peak"],
        cleared_period=cleared_period,
        cleared_time=cleared_time,
        false_alarm=false_alarm,
    )


def analyze_files(
    paths: Sequence[PathLike], min_alarm_periods: int = 2
) -> EventsReport:
    """Analyze one or more JSONL files into a single report.  With
    several files, agent keys are prefixed by the file stem so two runs'
    identically named agents stay distinguishable."""
    if not paths:
        raise ValueError("no events files given")
    reports = [
        analyze_events(
            read_jsonl(path),
            min_alarm_periods=min_alarm_periods,
            source=str(path),
        )
        for path in paths
    ]
    if len(reports) == 1:
        return reports[0]
    merged_agents: Dict[str, AgentTimeline] = {}
    by_kind: Dict[str, int] = {}
    profiles: List[Dict[str, Any]] = []
    soaks: List[Dict[str, Any]] = []
    total = 0
    for path, report in zip(paths, reports):
        stem = Path(path).stem
        for name, timeline in report.agents.items():
            merged_agents[f"{stem}:{name}"] = timeline
        for kind, count in report.by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        profiles.extend(report.profiles)
        soaks.extend(report.soaks)
        total += report.events_total
    fleets = [report.fleet for report in reports if report.fleet is not None]
    fleet: Optional[Dict[str, Any]] = None
    if fleets:
        from .merge import merge_rollup_snapshots

        fleet = merge_rollup_snapshots(fleets).to_dict()
    return EventsReport(
        agents=merged_agents,
        events_total=total,
        by_kind=by_kind,
        sources=tuple(str(path) for path in paths),
        min_alarm_periods=min_alarm_periods,
        profiles=tuple(profiles),
        fleet=fleet,
        soaks=tuple(soaks),
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(
    report: EventsReport, fmt: str = "text", profile: bool = False
) -> str:
    """Render as ``text`` (terminal), ``markdown`` or ``json``.

    ``profile=True`` appends a per-stage cost section folded from the
    log's ``profile`` events (JSON always carries it under the
    ``profile`` key; text/markdown add it only on request).
    """
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "markdown":
        return _render_markdown(report, profile=profile)
    if fmt == "text":
        return _render_text(report, profile=profile)
    raise ValueError(
        f"unknown report format {fmt!r}; pick one of {REPORT_FORMATS}"
    )


def _profile_text_lines(report: EventsReport) -> List[str]:
    merged = report.merged_profile()
    lines = ["", "per-stage cost attribution"]
    if merged is None:
        lines.append("  no profile events in the log "
                     "(run with the profiler enabled)")
        return lines
    lines[-1] += (
        f" ({merged['runs']} profiled run(s), "
        f"mode {', '.join(merged['modes']) or '?'})"
    )
    header = (f"  {'stage':<16} {'calls':>9} {'packets':>9} "
              f"{'ns/call':>12} {'ns/packet':>12} {'total ms':>10}")
    lines.append(header)
    for row in merged["stages"]:
        lines.append(
            f"  {row['stage']:<16} {row['calls']:>9} {row['packets']:>9} "
            f"{row['ns_per_call']:>12.1f} {row['ns_per_packet']:>12.1f} "
            f"{row['ns_total'] / 1e6:>10.3f}"
        )
    return lines


def _profile_markdown_lines(report: EventsReport) -> List[str]:
    merged = report.merged_profile()
    lines = ["", "## Per-stage cost attribution", ""]
    if merged is None:
        lines.append("No profile events in the log.")
        return lines
    lines.append(f"- profiled runs: **{merged['runs']}** "
                 f"(mode: {', '.join(merged['modes']) or '?'})")
    lines.append("")
    lines.append("| stage | calls | packets | ns/call | ns/packet "
                 "| total ms |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for row in merged["stages"]:
        lines.append(
            f"| `{row['stage']}` | {row['calls']} | {row['packets']} "
            f"| {row['ns_per_call']:.1f} | {row['ns_per_packet']:.1f} "
            f"| {row['ns_total'] / 1e6:.3f} |"
        )
    return lines


def _fleet_text_lines(report: EventsReport) -> List[str]:
    doc = report.fleet
    if doc is None:
        return []
    counts = doc.get("agents", {})
    lines = ["", "fleet rollup"]
    lines.append(
        f"  agents {counts.get('total', 0)} "
        f"(ok={counts.get('ok', 0)} degraded={counts.get('degraded', 0)} "
        f"alarming={counts.get('alarming', 0)} down={counts.get('down', 0)})"
        f", quorum {counts.get('quorum', 1.0):.3f}"
        f", alarm fraction {counts.get('alarm_fraction', 0.0):.4f}"
    )
    cusum = doc.get("digests", {}).get("cusum", {}).get("quantiles", {})
    p99 = cusum.get("p99")
    if p99 is not None:
        lines.append(f"  cusum p50/p99: {cusum.get('p50', 0.0):.3f} / "
                     f"{p99:.3f}")
    for ranking, summary in sorted(doc.get("top", {}).items()):
        entries = summary.get("entries", [])
        if not entries:
            continue
        shown = ", ".join(
            f"{entry['agent']}={entry['weight']:g}" for entry in entries[:5]
        )
        lines.append(f"  top {ranking}: {shown}")
    return lines


def _fleet_markdown_lines(report: EventsReport) -> List[str]:
    doc = report.fleet
    if doc is None:
        return []
    counts = doc.get("agents", {})
    lines = ["", "## Fleet rollup", ""]
    lines.append(
        f"- agents: **{counts.get('total', 0)}** "
        f"(ok={counts.get('ok', 0)}, degraded={counts.get('degraded', 0)}, "
        f"alarming={counts.get('alarming', 0)}, down={counts.get('down', 0)})"
    )
    lines.append(f"- quorum: **{counts.get('quorum', 1.0):.3f}**, "
                 f"alarm fraction: {counts.get('alarm_fraction', 0.0):.4f}")
    cusum = doc.get("digests", {}).get("cusum", {}).get("quantiles", {})
    if cusum.get("p99") is not None:
        lines.append(f"- cusum p50/p99: {cusum.get('p50', 0.0):.3f} / "
                     f"{cusum['p99']:.3f}")
    top = {
        name: summary.get("entries", [])
        for name, summary in sorted(doc.get("top", {}).items())
        if summary.get("entries")
    }
    if top:
        lines.append("")
        lines.append("| ranking | top agents (weight) |")
        lines.append("|---|---|")
        for ranking, entries in top.items():
            shown = ", ".join(
                f"`{entry['agent']}` ({entry['weight']:g})"
                for entry in entries[:5]
            )
            lines.append(f"| {ranking} | {shown} |")
    return lines


def _soak_text_lines(report: EventsReport) -> List[str]:
    summary = report.soak_summary()
    if summary is None:
        return []
    lines = ["", "soak (continuous operation)"]
    lines.append(
        f"  epochs {summary['epochs']} "
        f"(attack={summary['attack_epochs']} "
        f"fault={summary['fault_epochs']}), "
        f"restores {summary['restores']}, "
        f"continuity failures {summary['continuity_failures']}"
    )
    mean_latency = summary["mean_latency_periods"]
    lines.append(
        f"  detection {summary['detected']}/{summary['attack_epochs']} "
        f"attack windows"
        + (f", mean delay {mean_latency:g} periods"
           if mean_latency is not None else "")
        + f", false alarms {summary['false_alarms']}"
        + f", degraded periods {summary['degraded_periods']}"
    )
    for name, count in summary["span_counts"].items():
        lines.append(f"  span {name:<18} x{count}")
    return lines


def _soak_markdown_lines(report: EventsReport) -> List[str]:
    summary = report.soak_summary()
    if summary is None:
        return []
    lines = ["", "## Soak (continuous operation)", ""]
    lines.append(
        f"- epochs: **{summary['epochs']}** "
        f"(attack={summary['attack_epochs']}, "
        f"fault={summary['fault_epochs']})"
    )
    lines.append(
        f"- restores: **{summary['restores']}**, continuity failures: "
        f"**{summary['continuity_failures']}**"
    )
    mean_latency = summary["mean_latency_periods"]
    lines.append(
        f"- detection: **{summary['detected']}/"
        f"{summary['attack_epochs']}** attack windows"
        + (f", mean delay {mean_latency:g} periods"
           if mean_latency is not None else "")
    )
    lines.append(
        f"- false alarms: {summary['false_alarms']}, degraded periods: "
        f"{summary['degraded_periods']}"
    )
    if summary["span_counts"]:
        lines.append("")
        lines.append("| span | count |")
        lines.append("|---|---:|")
        for name, count in summary["span_counts"].items():
            lines.append(f"| `{name}` | {count} |")
    return lines


def _span_line(span: AlarmSpan) -> str:
    clear = (
        f"cleared t={span.cleared_time:.0f}s (held "
        f"{span.duration_periods} periods)"
        if span.cleared_time is not None
        else "still active at end of log"
    )
    verdict = "FALSE ALARM" if span.false_alarm else "detection"
    return (
        f"raised t={span.raised_time:.0f}s (period {span.raised_period}), "
        f"latency {span.latency_periods} periods from onset, "
        f"peak y={span.peak_statistic:.3f}, {clear} -> {verdict}"
    )


def _render_text(report: EventsReport, profile: bool = False) -> str:
    # Local import: repro.experiments pulls in the whole experiment
    # harness, which obs must not require at import time.
    from ..experiments.report import sparkline

    lines: List[str] = []
    lines.append(
        f"events analyzed  : {report.events_total} "
        f"from {len(report.sources)} file(s)"
    )
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.by_kind.items())
    )
    lines.append(f"event kinds      : {kinds or '-'}")
    lines.append(
        f"alarms           : {report.alarm_count} "
        f"({report.detection_count} detections, "
        f"{report.false_alarm_count} false alarms at "
        f"min {report.min_alarm_periods} periods)"
    )
    latency = report.first_detection_latency
    lines.append(
        "detection latency: "
        + (f"{latency} periods (first detection, from CUSUM onset)"
           if latency is not None else "n/a (no detection)")
    )
    for name, timeline in sorted(report.agents.items()):
        lines.append("")
        span_of_time = (
            f"t={timeline.first_time:.0f}..{timeline.last_time:.0f}s"
            if timeline.first_time is not None
            else "no periods"
        )
        lines.append(
            f"agent {name}: {timeline.periods} periods ({span_of_time}), "
            f"max y={max(timeline.statistics, default=0.0):.3f}"
            + (f", threshold N={timeline.threshold}"
               if timeline.threshold is not None else "")
        )
        if timeline.statistics:
            lines.append("  y_n " + sparkline(timeline.statistics))
        for span in timeline.spans:
            lines.append("  " + _span_line(span))
        if timeline.alarm_contexts:
            lines.append(
                f"  flight recorder: {timeline.alarm_contexts} "
                f"alarm_context event(s)"
            )
    lines.extend(_fleet_text_lines(report))
    lines.extend(_soak_text_lines(report))
    if profile:
        lines.extend(_profile_text_lines(report))
    return "\n".join(lines)


def _render_markdown(report: EventsReport, profile: bool = False) -> str:
    from ..experiments.report import sparkline

    lines: List[str] = ["# Detection report", ""]
    lines.append(f"- events analyzed: **{report.events_total}** "
                 f"from {len(report.sources)} file(s)")
    lines.append(
        f"- alarms: **{report.alarm_count}** "
        f"({report.detection_count} detections, "
        f"{report.false_alarm_count} false alarms)"
    )
    latency = report.first_detection_latency
    lines.append(
        "- first detection latency: "
        + (f"**{latency} periods**" if latency is not None else "n/a")
    )
    lines.append("")
    lines.append("| agent | periods | max y_n | alarms | false | "
                 "latency (periods) | trace |")
    lines.append("|---|---:|---:|---:|---:|---:|---|")
    for name, timeline in sorted(report.agents.items()):
        first = timeline.first_detection_latency
        lines.append(
            f"| {name} | {timeline.periods} "
            f"| {max(timeline.statistics, default=0.0):.3f} "
            f"| {len(timeline.spans)} | {len(timeline.false_alarms)} "
            f"| {first if first is not None else '-'} "
            f"| `{sparkline(timeline.statistics, width=32)}` |"
        )
    spans = report.spans
    if spans:
        lines.append("")
        lines.append("## Alarm timeline")
        lines.append("")
        for span in sorted(spans, key=lambda s: s.raised_time):
            lines.append(f"- `{span.agent}` {_span_line(span)}")
    lines.extend(_fleet_markdown_lines(report))
    lines.extend(_soak_markdown_lines(report))
    if profile:
        lines.extend(_profile_markdown_lines(report))
    return "\n".join(lines)
