"""In-memory span tracing for the benchmark's traced run.

The traced run wraps the public functions and methods of each layer on
the module or class attribute the program looks them up on, records one
span per call (layer, start, end, parent span) in flat arrays, and
derives the per-layer metrics from those spans once the run has ended.
Nothing under ``src/`` changes: the wrappers exist only inside one
``with recorder.installed():`` block.

Layer names reuse the profiler stage names of
``repro.obs.profiler.PIPELINE_STAGES`` where a stage exists
(``fastpath.parse``, ``fastpath.classify``, ``cusum.step``,
``merge.fold``), so benchmark and ``/profile`` numbers line up.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Layers whose call counts are reported, so a bypassed layer shows 0.
LAYERS = (
    "fastpath.parse",
    "fastpath.classify",
    "fastpath.periodize",
    "syndog.observe_period",
    "cusum.step",
    "tsdb.append",
    "tsdb.query",
    "events.emit",
    "recorder.record",
    "alerts.evaluate",
    "slo.evaluate",
    "slo.record",
    "parallel.run_plan",
    "merge.fold",
    "soak.campaign",
)

#: Layers whose per-call cost is also reported by tenth of the run, to
#: show whether it grows with history.
DECILE_LAYERS = ("alerts.evaluate", "syndog.observe_period")

After = Callable[[tuple, dict, Any], None]
Skip = Callable[[tuple], bool]


class SpanRecorder:
    """Spans of one traced run, plus the work counted at the same
    boundaries (packets scanned, periods closed, shards, items).

    With *live_detectors_only*, the periods of detectors built without
    a live obs bundle (the soak's uninstrumented reference arm) run
    untraced, together with every layer they call, so they count
    neither as periods nor as time of the per-period layers."""

    def __init__(self, live_detectors_only: bool = False) -> None:
        self.live_detectors_only = live_detectors_only
        #: Depth of skipped calls in progress; nothing nested is traced.
        self._skipping = [0]
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Every detector that closed a period, kept alive so its
        #: retained records can be read after the run.
        self.detectors: Dict[int, Any] = {}
        #: DetectionResults the fastpath returned, for the oracle check.
        self.results: List[Any] = []

    def _wrap(
        self, name: str, fn: Callable, after: Optional[After], skip: Optional[Skip]
    ) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, stack, skipping = (
            self.name_id, self.start, self.end, self.parent, self._open,
            self._skipping,
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            if skipping[0]:
                return fn(*args, **kwargs)
            if skip is not None and skip(args):
                skipping[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    skipping[0] -= 1
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                start[index] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _targets(self) -> List[Tuple[Any, str, str, Optional[After], Optional[Skip]]]:
        import repro.experiments.soak as soak
        import repro.fastpath.pipeline as pipeline
        import repro.parallel as parallel
        import repro.parallel.engine as engine
        from repro.core.cusum import NonParametricCusum
        from repro.core.normalization import NormalizedDifference
        from repro.core.syndog import SynDog
        from repro.obs.alerts import AlertManager
        from repro.obs.events import EventLog
        from repro.obs.recorder import FlightRecorder
        from repro.obs.slo import SLOEngine
        from repro.obs.tsdb import TimeSeriesDB

        counts = self.counts

        def scanned(args: tuple, kwargs: dict, columns: Any) -> None:
            counts["packets"] += columns.records_read

        def detected(args: tuple, kwargs: dict, returned: Any) -> None:
            result = returned[0]
            counts["fastpath.periods_closed"] += len(result.records)
            self.results.append(result)

        def observed(args: tuple, kwargs: dict, record: Any) -> None:
            self.detectors[id(args[0])] = args[0]

        def planned(args: tuple, kwargs: dict, payloads: Any) -> None:
            plan = args[0] if args else kwargs["plan"]
            counts["shards"] += plan.num_shards
            counts["items"] += len(plan.items)

        def bare(args: tuple) -> bool:
            # SynDog binds its instruments only under a live obs bundle.
            return args[0]._m_periods is None

        dog_skip = bare if self.live_detectors_only else None
        return [
            (pipeline, "scan_capture", "fastpath.parse", scanned, None),
            (pipeline, "classify_block", "fastpath.classify", None, None),
            (pipeline, "detect_from_sources", "fastpath.periodize", detected, None),
            (SynDog, "observe_period", "syndog.observe_period", observed, dog_skip),
            (SynDog, "observe_missing_period", "syndog.observe_period", observed,
             dog_skip),
            (NormalizedDifference, "observe", "cusum.step", None, None),
            (NonParametricCusum, "update", "cusum.step", None, None),
            (TimeSeriesDB, "append", "tsdb.append", None, None),
            (TimeSeriesDB, "query", "tsdb.query", None, None),
            (EventLog, "emit", "events.emit", None, None),
            (FlightRecorder, "record", "recorder.record", None, None),
            (AlertManager, "evaluate", "alerts.evaluate", None, None),
            (SLOEngine, "evaluate", "slo.evaluate", None, None),
            (SLOEngine, "record", "slo.record", None, None),
            (parallel, "run_plan", "parallel.run_plan", planned, None),
            (engine, "merge_snapshot", "merge.fold", None, None),
            (engine, "merge_tsdb_snapshots", "merge.fold", None, None),
            (engine, "merge_event_groups", "merge.fold", None, None),
            (soak, "run_soak_campaign", "soak.campaign", None, None),
        ]

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer for the duration of the block."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, after, skip in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, after, skip))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV, one row per call."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,layer,start_ns,end_ns,parent\n")
            for index, (nid, t0, t1, parent) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                out.write(f"{index},{names[nid]},{t0},{t1},{parent}\n")


class SpanTable:
    """Aggregates over a finished run's spans.

    A layer's *inclusive* time is the sum of its spans.  Its self time,
    as each metric defines it, subtracts the time of named direct child
    layers: ``fastpath.parse`` is ``scan_capture`` minus its
    ``classify_block`` children, for example."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._ids = {name: i for i, name in enumerate(recorder.names)}
        self._calls: Dict[int, int] = defaultdict(int)
        self._inclusive: Dict[int, int] = defaultdict(int)
        self._child: Dict[Tuple[int, int], int] = defaultdict(int)
        self._spans_of: Dict[int, List[int]] = defaultdict(list)
        self._durations: Dict[int, List[int]] = defaultdict(list)
        decile_ids = {self._ids[name] for name in DECILE_LAYERS if name in self._ids}
        for index, (nid, t0, t1, parent) in enumerate(
            zip(recorder.name_id, recorder.start, recorder.end, recorder.parent)
        ):
            duration = t1 - t0
            self._calls[nid] += 1
            self._inclusive[nid] += duration
            self._spans_of[nid].append(index)
            if parent >= 0:
                self._child[(parent, nid)] += duration
            if nid in decile_ids:
                self._durations[nid].append(duration)

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def inclusive_ns(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self._inclusive[nid]

    def exclusive_ns(self, name: str, minus: Iterable[str]) -> int:
        """Time in *name*'s spans not covered by its direct children
        from the layers in *minus*."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        minus_ids = [self._ids[m] for m in minus if m in self._ids]
        total = self._inclusive[nid]
        child = self._child
        for index in self._spans_of[nid]:
            for mid in minus_ids:
                total -= child.get((index, mid), 0)
        return total

    def decile_means_ns(self, name: str) -> List[float]:
        """Mean span duration in each tenth of the layer's calls, in
        call order; all zeros for a layer the run never called."""
        nid = self._ids.get(name)
        durations = self._durations.get(nid, []) if nid is not None else []
        n = len(durations)
        means = []
        for decile in range(10):
            chunk = durations[decile * n // 10:(decile + 1) * n // 10]
            if not chunk and durations:
                chunk = [durations[min(decile * n // 10, n - 1)]]
            means.append(sum(chunk) / len(chunk) if chunk else 0.0)
        return means


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Every per-layer metric of the traced run, from its spans."""
    table = SpanTable(recorder)
    counts = recorder.counts
    packets = counts["packets"]
    periods = table.calls("syndog.observe_period")
    metrics: Dict[str, float] = {}

    metrics["fastpath.parse.ns_per_pkt"] = _per(
        table.exclusive_ns("fastpath.parse", ["fastpath.classify"]), packets
    )
    metrics["fastpath.classify.ns_per_pkt"] = _per(
        table.inclusive_ns("fastpath.classify"), packets
    )
    metrics["fastpath.periodize.ns_per_pkt"] = _per(
        table.exclusive_ns(
            "fastpath.periodize", ["fastpath.parse", "syndog.observe_period"]
        ),
        packets,
    )
    metrics["fastpath.periods_closed"] = counts["fastpath.periods_closed"]

    metrics["cusum.step.ns_per_period"] = _per(
        table.inclusive_ns("cusum.step"), periods
    )
    metrics["syndog.records_retained"] = max(
        (len(dog.records) for dog in recorder.detectors.values()), default=0
    )

    metrics["obs.emit.ns_per_period"] = _per(
        table.exclusive_ns(
            "syndog.observe_period", ["cusum.step", "alerts.evaluate"]
        ),
        periods,
    )
    for name in ("tsdb.append", "events.emit", "tsdb.query", "slo.evaluate"):
        metrics[f"{name}.ns_per_call"] = _per(
            table.inclusive_ns(name), table.calls(name)
        )
    metrics["recorder.record.ns_per_call"] = _per(
        table.exclusive_ns("recorder.record", ["events.emit"]),
        table.calls("recorder.record"),
    )
    metrics["slo.record.ns_per_call"] = _per(
        table.exclusive_ns("slo.record", ["slo.evaluate"]),
        table.calls("slo.record"),
    )
    metrics["events.emitted_per_period"] = _per(table.calls("events.emit"), periods)
    metrics["tsdb.query.calls_per_period"] = _per(table.calls("tsdb.query"), periods)

    metrics["alerts.evaluate.ns_per_period"] = _per(
        table.inclusive_ns("alerts.evaluate"), periods
    )
    for name in DECILE_LAYERS:
        for decile, mean in enumerate(table.decile_means_ns(name), start=1):
            metrics[f"{name}.decile{decile:02d}.ns"] = mean
    alert_deciles = table.decile_means_ns("alerts.evaluate")
    metrics["alerts.evaluate.growth"] = _per(alert_deciles[-1], alert_deciles[0])

    metrics["parallel.run_plan.s"] = table.inclusive_ns("parallel.run_plan") / 1e9
    metrics["parallel.shards"] = counts["shards"]
    metrics["merge.fold.ns_per_item"] = _per(
        table.inclusive_ns("merge.fold"), counts["items"]
    )
    metrics["soak.replay.s"] = table.exclusive_ns(
        "soak.campaign",
        ["parallel.run_plan", "slo.evaluate", "slo.record", "alerts.evaluate"],
    ) / 1e9

    for name in LAYERS:
        metrics[f"{name}.calls"] = table.calls(name)
    return metrics
