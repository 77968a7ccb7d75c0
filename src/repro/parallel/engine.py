"""The sharded multiprocessing executor.

:func:`run_plan` executes a :class:`~repro.parallel.workplan.WorkPlan`
with a top-level ``worker_fn(item, obs)`` and returns per-item payloads
in grid order.  The execution contract:

* **Worker-count invariance.**  The plan's shards — not the workers —
  are the unit of execution *and* of observability capture.  Each shard
  runs ``worker_fn`` over its items against a fresh private
  :class:`~repro.obs.runtime.Instrumentation`; the parent folds the
  per-shard registries (in :meth:`WorkPlan.merge_order`) and re-emits
  the per-item event groups in grid order.  Every one of those steps is
  a pure function of the plan, so output is byte-identical for any
  ``workers`` value — including 1, which skips processes entirely and
  runs the very same shard loop inline.
* **Crash handling.**  A worker that dies (nonzero exit, unpickled
  exception, or an injected :data:`~repro.faults.schedule.FaultKind.CRASH`)
  gets its shard rescheduled exactly once; a second failure raises
  :class:`WorkerCrashError` loudly with both causes.  Because a shard's
  outputs depend only on the shard, the retry reproduces exactly what
  the crashed attempt would have produced.
* **Fault injection.**  ``fault_schedule`` reuses the
  :mod:`repro.faults` vocabulary: a ``crash`` spec with params
  ``{"shard": k, "attempt": a, "after_items": n}`` hard-kills
  (``os._exit``) attempt *a* of shard *k* after *n* items — the
  agent-crash model, aimed at the engine itself.  Ignored on the
  inline path (killing the parent is not a simulation).

What the parallel path *loses* relative to a single-process run: live
event streaming (events buffer per shard and reach the parent's sinks
at merge time, in grid order).  Flight-recorder alarm
contexts are captured per shard and shipped home.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.schedule import FaultKind, FaultSchedule
from ..obs.events import EventLog, MemorySink
from ..obs.merge import (
    Snapshot,
    merge_event_groups,
    merge_snapshot,
    merge_tsdb_snapshots,
    registry_snapshot,
    tsdb_snapshot,
)
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import Profiler
from ..obs.recorder import FlightRecorder
from ..obs.tsdb import TimeSeriesDB
from ..obs.runtime import Instrumentation, resolve_instrumentation
from .workplan import WorkPlan, effective_workers

__all__ = [
    "ShardResult",
    "WorkerCrashError",
    "run_plan",
    "shard_bundle",
]

#: Exit code an injected crash dies with — distinguishable from a
#: Python traceback (1) and a signal death (negative) in diagnostics.
_CRASH_EXIT_CODE = 73

#: Seconds between liveness sweeps while waiting on the result queue.
_POLL_SECONDS = 0.1


class WorkerCrashError(RuntimeError):
    """A shard failed on both its attempts."""

    def __init__(self, shard_index: int, causes: Sequence[str]) -> None:
        self.shard_index = shard_index
        self.causes = tuple(causes)
        detail = "; then ".join(self.causes)
        super().__init__(
            f"shard {shard_index} failed {len(self.causes)} time(s) "
            f"(rescheduled once): {detail}"
        )


def shard_bundle(obs: Instrumentation) -> Instrumentation:
    """A fresh shard-private bundle with the live slots of the parent
    bundle *obs*, so a shard instruments exactly what the parent would
    have — no more (cost), no less (holes in the merged export).

    Each component is built from the parent's own: a fresh registry, an
    unbounded in-memory event sink, a recorder with the parent's
    capacity and post-alarm periods, a store with the parent's
    retention and a profiler with the parent's mode and sample rate.
    There is no alert manager: the parent evaluates rules over the
    merged store."""
    events = (
        None if obs.events is None else EventLog(MemorySink(max_events=None))
    )
    recorder, tsdb, profiler = obs.recorder, obs.tsdb, obs.profiler
    return Instrumentation(
        registry=None if obs.registry is None else MetricsRegistry(),
        events=events,
        recorder=(
            None
            if recorder is None
            else FlightRecorder(recorder.capacity, recorder.post_alarm_periods)
        ),
        # Shard stores keep only the detector feed: a shard's registry
        # holds partial counters and its unbounded sink never drops, so
        # per-period snapshots are the parent's to reconstruct at merge
        # time (record_snapshots=False).
        tsdb=(
            None
            if tsdb is None
            else TimeSeriesDB(retention=tsdb.retention, record_snapshots=False)
        ),
        # A shard profiler accumulates raw stage counts only; derived
        # documents are the parent's business.
        profiler=(
            None
            if profiler is None
            else Profiler(profiler.mode, profiler.sample_every)
        ),
    )


@dataclass(frozen=True)
class ShardResult:
    """Everything one shard ships home."""

    shard_index: int
    #: ``(grid_index, payload)`` pairs, in grid order.
    results: Tuple[Tuple[int, Any], ...]
    #: Snapshot of the shard's private registry (None when metrics are
    #: not captured).
    registry: Optional[Snapshot] = None
    #: ``(grid_index, events)`` groups — the events each item emitted.
    events: Tuple[Tuple[int, Tuple[Dict[str, Any], ...]], ...] = ()
    #: Flight-recorder alarm contexts completed during the shard.
    contexts: Tuple[Dict[str, Any], ...] = ()
    #: Snapshot of the shard's time-series store (feed samples only;
    #: None when history is not captured).
    tsdb: Optional[Dict[str, Any]] = None
    #: Raw per-stage profiler counts (None when profiling is off).
    profiler: Optional[Dict[str, Dict[str, int]]] = None


# ----------------------------------------------------------------------
# Crash injection (the repro.faults agent-crash model, aimed at us)
# ----------------------------------------------------------------------
def _crash_points(
    fault_schedule: Optional[FaultSchedule],
) -> Tuple[Tuple[int, int, int], ...]:
    """``(shard, attempt, after_items)`` triples from the schedule's
    ``crash`` specs.  Specs without a ``shard`` param belong to the
    period-level chaos model, not the engine, and are ignored here."""
    if fault_schedule is None:
        return ()
    points = []
    for spec in fault_schedule.specs:
        if spec.kind != FaultKind.CRASH or "shard" not in spec.params:
            continue
        points.append(
            (
                int(spec.params["shard"]),
                int(spec.params.get("attempt", 0)),
                int(spec.params.get("after_items", 0)),
            )
        )
    return tuple(points)


def _maybe_crash(
    crash_points: Tuple[Tuple[int, int, int], ...],
    shard_index: int,
    attempt: int,
    items_done: int,
) -> None:
    for shard, crash_attempt, after_items in crash_points:
        if (
            shard == shard_index
            and crash_attempt == attempt
            and after_items == items_done
        ):
            # Die the way a real agent crash does: no unwinding, no
            # result, no goodbye — the parent sees only the exit code.
            os._exit(_CRASH_EXIT_CODE)


# ----------------------------------------------------------------------
# Shard execution (runs in the worker process AND inline)
# ----------------------------------------------------------------------
def _execute_shard(
    plan: WorkPlan,
    worker_fn: Callable[[Any, Instrumentation], Any],
    shard_index: int,
    attempt: int,
    obs: Instrumentation,
    crash_points: Tuple[Tuple[int, int, int], ...],
) -> ShardResult:
    """Run one shard to completion against *obs*, its private bundle
    (:func:`shard_bundle`).

    Shared verbatim by the subprocess and inline paths — the structural
    guarantee that ``--workers 1`` output matches ``--workers N``.
    """
    sink = obs.memory_events()
    recorder = obs.recorder
    shard_items = plan.shard(shard_index)
    results: List[Tuple[int, Any]] = []
    event_groups: List[Tuple[int, Tuple[Dict[str, Any], ...]]] = []
    for done, (grid_index, item) in enumerate(shard_items):
        _maybe_crash(crash_points, shard_index, attempt, done)
        watermark = len(sink.events) if sink is not None else 0
        payload = worker_fn(item, obs)
        results.append((grid_index, payload))
        if sink is not None:
            event_groups.append(
                (grid_index, tuple(sink.events[watermark:]))
            )
    _maybe_crash(crash_points, shard_index, attempt, len(shard_items))
    # Alarm contexts still pending when the shard's trace ends are
    # flushed now, into the last item's event group — the per-shard
    # analogue of Instrumentation.finalize().
    if recorder is not None:
        watermark = len(sink.events) if sink is not None else 0
        recorder.flush()
        if sink is not None and event_groups and sink.events[watermark:]:
            last_index, last_events = event_groups[-1]
            event_groups[-1] = (
                last_index,
                last_events + tuple(sink.events[watermark:]),
            )
    return ShardResult(
        shard_index=shard_index,
        results=tuple(results),
        registry=(
            None if obs.registry is None else registry_snapshot(obs.registry)
        ),
        events=tuple(event_groups),
        contexts=() if recorder is None else tuple(recorder.contexts),
        tsdb=None if obs.tsdb is None else tsdb_snapshot(obs.tsdb),
        profiler=(
            None if obs.profiler is None else obs.profiler.to_snapshot()
        ),
    )


def _shard_entry(
    queue: "multiprocessing.Queue",
    plan: WorkPlan,
    worker_fn: Callable[[Any, Instrumentation], Any],
    shard_index: int,
    attempt: int,
    obs: Instrumentation,
    crash_points: Tuple[Tuple[int, int, int], ...],
) -> None:
    """Worker-process entry point: execute, report, flush, exit."""
    try:
        result = _execute_shard(
            plan, worker_fn, shard_index, attempt, obs, crash_points
        )
        queue.put(("ok", shard_index, result))
    except BaseException:
        queue.put(("error", shard_index, traceback.format_exc()))
    finally:
        # Guarantee the feeder thread has handed our message to the
        # pipe before the process exits, or the parent would see a
        # clean exit with no result — indistinguishable from a crash.
        queue.close()
        queue.join_thread()


# ----------------------------------------------------------------------
# The parent-side scheduler
# ----------------------------------------------------------------------
def _mp_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _merge_into_parent(
    obs: Instrumentation,
    plan: WorkPlan,
    by_shard: Dict[int, ShardResult],
) -> None:
    """Fold every shard's observability into the parent bundle.

    The whole fold is itself a profiled stage (``merge.fold``): one
    call per :func:`run_plan` merge, with every item folded counted as
    a unit of work.  Both are pure functions of the plan — the stage's
    counts stay worker-invariant.
    """
    prof = (
        obs.profiler.stage("merge.fold", sample_every=1)
        if obs.profiler is not None
        else None
    )
    token = None if prof is None else prof.begin()
    if obs.registry is not None:
        for shard_index in plan.merge_order():
            snapshot = by_shard[shard_index].registry
            if snapshot:
                merge_snapshot(obs.registry, snapshot)
    if obs.tsdb is not None:
        merge_tsdb_snapshots(
            obs.tsdb,
            (
                by_shard[shard_index].tsdb
                for shard_index in plan.merge_order()
                if by_shard[shard_index].tsdb is not None
            ),
        )
    if obs.events is not None:
        groups: List[Tuple[int, Tuple[Dict[str, Any], ...]]] = []
        for result in by_shard.values():
            groups.extend(result.events)
        # The event replay also reconstructs the parent's event-loss
        # watermark series (drops happen here, against the parent's
        # bounded sinks — exactly where a serial run dropped).
        merge_event_groups(obs.events, groups, tsdb=obs.tsdb)
    if obs.recorder is not None:
        for shard_index in plan.merge_order():
            for context in by_shard[shard_index].contexts:
                obs.recorder.contexts.append(context)
                obs.recorder.contexts_emitted += 1
    if obs.profiler is not None:
        for shard_index in plan.merge_order():
            snapshot = by_shard[shard_index].profiler
            if snapshot:
                obs.profiler.merge_from(snapshot)
    if prof is not None:
        items = sum(len(result.results) for result in by_shard.values())
        prof.end(token, packets=items)


def run_plan(
    plan: WorkPlan,
    worker_fn: Callable[[Any, Instrumentation], Any],
    workers: Optional[int] = None,
    obs: Optional[Instrumentation] = None,
    fault_schedule: Optional[FaultSchedule] = None,
) -> List[Any]:
    """Execute *plan* and return per-item payloads in grid order.

    ``worker_fn`` must be a module-level callable (it crosses a process
    boundary) taking ``(item, obs)`` and returning a picklable payload;
    it must instrument through the *passed* ``obs`` only.
    """
    obs = resolve_instrumentation(obs)
    workers = effective_workers(workers)
    crash_points = _crash_points(fault_schedule)
    if not plan.items:
        return []

    by_shard: Dict[int, ShardResult] = {}
    if workers == 1:
        for shard_index in range(plan.num_shards):
            by_shard[shard_index] = _execute_shard(
                plan, worker_fn, shard_index, attempt=0,
                obs=shard_bundle(obs),
                crash_points=(),  # cannot os._exit the parent
            )
    else:
        _run_sharded(plan, worker_fn, workers, obs, crash_points, by_shard)

    _merge_into_parent(obs, plan, by_shard)
    payloads: List[Any] = [None] * len(plan.items)
    for result in by_shard.values():
        for grid_index, payload in result.results:
            payloads[grid_index] = payload
    return payloads


def _run_sharded(
    plan: WorkPlan,
    worker_fn: Callable[[Any, Instrumentation], Any],
    workers: int,
    obs: Instrumentation,
    crash_points: Tuple[Tuple[int, int, int], ...],
    by_shard: Dict[int, ShardResult],
) -> None:
    """Pull shards through a bounded pool of single-shard processes,
    each attempt against a fresh :func:`shard_bundle` of the parent
    bundle *obs*."""
    ctx = _mp_context()
    queue: "multiprocessing.Queue" = ctx.Queue()
    pending = list(range(plan.num_shards))
    attempts: Dict[int, int] = {k: 0 for k in pending}
    failures: Dict[int, List[str]] = {k: [] for k in pending}
    running: Dict[int, Any] = {}

    def launch(shard_index: int) -> None:
        process = ctx.Process(
            target=_shard_entry,
            args=(
                queue, plan, worker_fn, shard_index,
                attempts[shard_index], shard_bundle(obs), crash_points,
            ),
            daemon=True,
        )
        process.start()
        running[shard_index] = process

    def fail_or_retry(shard_index: int, cause: str) -> None:
        failures[shard_index].append(cause)
        attempts[shard_index] += 1
        if attempts[shard_index] > 1:
            for process in running.values():
                process.terminate()
            raise WorkerCrashError(shard_index, failures[shard_index])
        if obs.registry is not None:
            # Registered lazily, on the first actual reschedule: an
            # always-present zero would leak into exports serial runs
            # never write.  Scheduling accidents are host facts, so the
            # name is excluded from byte-identity projections (see
            # merge._is_deterministic_name) but feeds the
            # worker_retries builtin alert rule live.
            obs.registry.counter(
                "parallel_worker_retries_total",
                "Crashed worker shards rescheduled by the engine",
            ).inc()
        launch(shard_index)  # the one reschedule

    try:
        while len(by_shard) < plan.num_shards:
            while pending and len(running) < workers:
                launch(pending.pop(0))
            try:
                status, shard_index, payload = queue.get(
                    timeout=_POLL_SECONDS
                )
            except Exception:  # queue.Empty — sweep for silent deaths
                for shard_index, process in list(running.items()):
                    if process.exitcode is None:
                        continue
                    if process.exitcode == 0:
                        # Exited cleanly: its result is in the pipe (the
                        # worker joined the feeder before exiting) and
                        # the next get() will deliver it.
                        continue
                    del running[shard_index]
                    process.join()
                    fail_or_retry(
                        shard_index,
                        f"worker died with exit code {process.exitcode}",
                    )
                continue
            process = running.pop(shard_index, None)
            if process is not None:
                process.join()
            if status == "ok":
                by_shard[shard_index] = payload
            else:
                fail_or_retry(shard_index, f"worker raised:\n{payload}")
    finally:
        for process in running.values():
            process.terminate()
        for process in running.values():
            process.join()
        queue.close()
