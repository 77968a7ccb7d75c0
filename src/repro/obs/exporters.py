"""Render a :class:`~repro.obs.metrics.MetricsRegistry` for the outside
world.

Two formats:

* **Prometheus text exposition** (`# HELP` / `# TYPE` / sample lines
  with escaped labels) — what a scrape endpoint or node-exporter
  textfile collector consumes.  :func:`parse_prometheus_text` is the
  matching minimal parser, used by the test-suite to prove the output
  is machine-readable and by tooling that wants the numbers back.
* **JSONL** via :func:`registry_to_dicts` — one dict per sample, for
  shipping metrics down the same pipe as the event log.

:func:`export_profiler` folds the profiler's per-stage cost attribution
into a registry as ``profile_stage_*`` families, and
:func:`export_event_stats` folds the event log's loss counters, so one
scrape carries metrics, stage timings and event loss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "render_prometheus",
    "write_prometheus",
    "parse_prometheus_text",
    "registry_to_dicts",
    "export_event_stats",
    "export_profiler",
    "summarize_histograms",
]

PathLike = Union[str, Path]


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples():
            lines.append(
                f"{family.name}{sample.suffix}"
                f"{_render_labels(sample.labels)} "
                f"{_format_value(sample.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: PathLike) -> int:
    """Write the exposition file; returns the number of sample lines.

    The write is atomic (temp file in the same directory, then
    ``os.replace``) so a concurrent file-based scraper or ``tail``
    never observes a partially written metrics file.
    """
    text = render_prometheus(registry)
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
        )
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )


# ----------------------------------------------------------------------
# Parsing (round-trip validation and tooling)
# ----------------------------------------------------------------------
def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value near {text[eq:]!r}")
        j = eq + 2
        value_chars: List[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                j += 1
                escaped = text[j]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, escaped)
                )
            else:
                value_chars.append(text[j])
            j += 1
        labels[name] = "".join(value_chars)
        i = j + 1
    return labels


def parse_prometheus_text(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text into ``(name, labels, value)`` tuples.

    Raises ValueError on malformed sample lines — which is exactly what
    makes it useful as an acceptance check for the renderer.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            brace = line.index("{")
            name = line[:brace]
            close = line.rindex("}")
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed sample line: {line!r}")
            name, value_text = parts[0], parts[1]
            labels = {}
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ValueError(f"malformed metric name: {name!r}")
        value_text = value_text.split()[0]  # ignore optional timestamp
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
        samples.append((name, labels, value))
    return samples


# ----------------------------------------------------------------------
# Registry → dicts (JSONL-friendly)
# ----------------------------------------------------------------------
def registry_to_dicts(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """One dict per sample — the JSONL view of a scrape."""
    rows: List[Dict[str, Any]] = []
    for family in registry.collect():
        for sample in family.samples():
            rows.append(
                {
                    "metric": family.name + sample.suffix,
                    "type": family.kind,
                    "labels": dict(sample.labels),
                    "value": sample.value,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Histogram summaries (quantile view of a scrape)
# ----------------------------------------------------------------------
def summarize_histograms(
    registry: MetricsRegistry,
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
) -> List[Dict[str, Any]]:
    """One row per histogram child: count, sum, mean and interpolated
    quantiles (p50/p95/p99 by default).  Empty histograms are skipped —
    there is nothing to estimate."""
    rows: List[Dict[str, Any]] = []
    for family in registry.collect():
        if not isinstance(family, Histogram):
            continue
        children: List[Tuple[Dict[str, str], Histogram]]
        if family.labelnames:
            children = [
                (dict(zip(family.labelnames, key)), child)
                for key, child in family._children.items()
            ]
        else:
            children = [({}, family)]
        for labels, child in children:
            if child.count == 0:
                continue
            row: Dict[str, Any] = {
                "metric": family.name,
                "labels": labels,
                "count": child.count,
                "sum": child.sum,
                "mean": child.sum / child.count,
            }
            for q in quantiles:
                row[f"p{round(q * 100):d}"] = child.quantile(q)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Event log → registry (loss accounting)
# ----------------------------------------------------------------------
def export_event_stats(events: Any, registry: MetricsRegistry) -> None:
    """Fold the event log's emission/loss counters into *registry* as
    ``obs_events_emitted_total`` / ``obs_events_dropped_total`` so a
    scrape (or the final ``.prom``) makes silent event loss visible.
    Idempotent: a re-export sets the counters to the log's totals; an
    absent log (``None``) exports nothing."""
    if events is None:
        return
    emitted = registry.counter(
        "obs_events_emitted_total", "Structured events emitted this run"
    )
    emitted.inc(events.events_emitted - emitted.value)
    dropped = registry.counter(
        "obs_events_dropped_total",
        "Events dropped by bounded sinks (silent loss made visible)",
    )
    dropped.inc(events.dropped - dropped.value)


# ----------------------------------------------------------------------
# Profiler → registry
# ----------------------------------------------------------------------
def export_profiler(profiler: Any, registry: MetricsRegistry) -> None:
    """Fold the profiler's per-stage attribution into *registry* as
    ``profile_stage_ns_total`` / ``_calls_total`` / ``_packets_total``
    families labeled by stage, so one scrape carries the cost profile.
    Idempotent, like :func:`export_event_stats`.  These families are
    excluded from the deterministic projection in :mod:`repro.obs.merge`
    (timers-mode nanoseconds are wall clock)."""
    rows = profiler.stage_documents()
    if not rows:
        return
    ns = registry.counter(
        "profile_stage_ns_total",
        "Attributed nanoseconds per pipeline stage",
        ("stage",),
    )
    calls = registry.counter(
        "profile_stage_calls_total", "Calls per pipeline stage", ("stage",)
    )
    packets = registry.counter(
        "profile_stage_packets_total",
        "Packets attributed per pipeline stage",
        ("stage",),
    )
    for row in rows:
        child = ns.labels(row["stage"])
        child.inc(row["ns_total"] - child.value)  # idempotent re-export
        child = calls.labels(row["stage"])
        child.inc(row["calls"] - child.value)
        child = packets.labels(row["stage"])
        child.inc(row["packets"] - child.value)
