"""Hot-path profiler: deterministic per-stage cost attribution.

The repo knows its end-to-end cost ("~5 µs/packet instrumented", from
``benchmarks/test_obs_overhead.py``) but, until now, not *where* those
microseconds go.  This module attributes wall time, CPU time, packet,
byte, and allocation counts to named pipeline stages:

======================  ================================================
stage                   attribution point
======================  ================================================
``pcap.parse``          one pcap record read + header decode
``classify``            the classifier three-step test per packet
``sniff.update``        one counting-sniffer update per packet
``cusum.step``          one normalizer + CUSUM period update
``federation.feed``     one member replay inside ``Federation.feed``
``merge.fold``          folding one shard result into the parent bundle
======================  ================================================

Two modes, one document shape:

``timers``
    Real clocks (``perf_counter_ns``/``process_time_ns``) and
    allocation deltas from the GC's gen-0 counter (see
    :meth:`StageHandle.begin`).  Per-packet stages time only every
    ``sample_every``-th call and extrapolate, so the enabled-path
    overhead stays within the benchmarked budget (``profiler_ratio``
    in ``BENCH_obs.json``).

``cost-model``
    No clocks at all.  Stage nanoseconds are *derived* from counts via
    the fixed per-op constants in :data:`COST_MODEL`.  Counts are
    worker-invariant (the sharded engine executes a fixed shard plan),
    so cost-model profile documents are byte-identical at any
    ``--workers`` — the same determinism contract every other artifact
    in this repo honors, and the oracle for the ROADMAP item 1 rewrite:
    a refactor that changes *what work happens per packet* changes the
    cost-model document even when wall clocks are too noisy to show it.

The document (:meth:`Profiler.to_dict`) exports to folded-stack
(flamegraph-ready) and callgrind formats via :func:`folded_stacks` and
:func:`callgrind_format`; both have parsers for round-trip tests.  A
live run publishes it as ``/profile``, as the ``profile_stage_*``
families on ``/metrics`` (:func:`~repro.obs.exporters.export_profiler`)
and as the ``profile`` event; ``repro profile --baseline`` is the
per-stage regression check against a committed document.

Zero-cost-when-disabled: components bind a :class:`StageHandle` once at
construction when ``obs.profiler is not None`` and keep ``None``
otherwise; the hot path pays a single ``is not None`` check (benchmarked as
``profiler_disabled_ratio`` ≤ 1.02x).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union


__all__ = [
    "StageCost",
    "COST_MODEL",
    "DEFAULT_COST",
    "PIPELINE_STAGES",
    "StageHandle",
    "Profiler",
    "merge_stage_rows",
    "folded_stacks",
    "parse_folded",
    "write_folded",
    "callgrind_format",
    "parse_callgrind",
    "write_callgrind",
]


class StageCost(NamedTuple):
    """Fixed nominal costs for one stage in cost-model mode.

    The constants are *fictional but stable*: loosely calibrated to the
    measured ~5 µs/packet pipeline so the relative shape of a cost-model
    flamegraph resembles a timed one, but their real job is determinism
    — the same counts always derive the same nanoseconds.
    """

    per_call_ns: int = 100
    per_packet_ns: int = 10
    per_byte_ns: int = 0
    allocs_per_call: int = 1


#: The canonical pipeline stages, in pipeline order.
PIPELINE_STAGES: Tuple[str, ...] = (
    "pcap.parse",
    "fastpath.parse",
    "classify",
    "fastpath.classify",
    "sniff.update",
    "cusum.step",
    "federation.feed",
    "merge.fold",
)

#: Fixed per-op costs (cost-model mode).  Change these and every
#: committed cost-model document changes — treat as part of the format.
COST_MODEL: Dict[str, StageCost] = {
    "pcap.parse": StageCost(per_call_ns=400, per_packet_ns=0, per_byte_ns=2, allocs_per_call=4),
    # Columnar stages run once per record *block*, not per packet: a
    # large per-call constant plus a small per-packet slope mirrors the
    # measured batched shape (BENCHMARK.json capture-unc:
    # fastpath.parse.ns_per_pkt, fastpath.classify.ns_per_pkt).
    "fastpath.parse": StageCost(per_call_ns=20000, per_packet_ns=30, per_byte_ns=0, allocs_per_call=12),
    "fastpath.classify": StageCost(per_call_ns=30000, per_packet_ns=60, per_byte_ns=0, allocs_per_call=40),
    "classify": StageCost(per_call_ns=150, per_packet_ns=0, per_byte_ns=0, allocs_per_call=1),
    "sniff.update": StageCost(per_call_ns=250, per_packet_ns=0, per_byte_ns=0, allocs_per_call=0),
    "cusum.step": StageCost(per_call_ns=1500, per_packet_ns=0, per_byte_ns=0, allocs_per_call=6),
    "federation.feed": StageCost(per_call_ns=2000, per_packet_ns=50, per_byte_ns=0, allocs_per_call=8),
    "merge.fold": StageCost(per_call_ns=5000, per_packet_ns=100, per_byte_ns=0, allocs_per_call=16),
}

DEFAULT_COST = StageCost()

_SNAPSHOT_FIELDS = (
    "calls", "packets", "bytes", "wall_ns", "cpu_ns", "allocs", "timed_calls",
)


def _ns_per(ns_total: int, count: int) -> float:
    """Nanoseconds per call or packet, as the profile document rounds
    them (0.0 for a stage with none)."""
    return round(ns_total / count, 1) if count else 0.0


class StageHandle:
    """Accumulator for one named stage; bind once, call on the hot path.

    Counting (``add``) is three integer additions.  Timing happens only
    on sampled calls: ``sample()`` tells per-packet callers whether to
    read clocks this time; ``begin()``/``end()`` wrap coarse per-period
    stages.  In cost-model mode ``sample()`` is always False and
    ``begin()`` always returns None, so no clock is ever read.

    All count fields plus ``every``/``countdown`` are public: per-packet
    callers are expected to inline both the countdown test
    (``handle.countdown == 1`` is this call sampled, then reset to
    ``every`` / decrement) and the untimed accumulation (three ``+=``)
    rather than pay three method calls per packet.  The inline form and
    ``sample()``/``add()`` are interchangeable — same state transitions.
    """

    __slots__ = (
        "name", "calls", "packets", "bytes", "wall_ns", "cpu_ns",
        "allocs", "timed_calls", "every", "countdown",
    )

    def __init__(self, name: str, sample_every: int) -> None:
        self.name = name
        self.calls = 0
        self.packets = 0
        self.bytes = 0
        self.wall_ns = 0
        self.cpu_ns = 0
        self.allocs = 0
        self.timed_calls = 0
        # 0 means "never time" (cost-model mode).
        self.every = max(0, int(sample_every))
        self.countdown = self.every

    def sample(self) -> bool:
        """True when this call should read clocks (timers mode only)."""
        if self.every == 0:
            return False
        self.countdown -= 1
        if self.countdown > 0:
            return False
        self.countdown = self.every
        return True

    def add(self, packets: int = 1, nbytes: int = 0) -> None:
        """Account one untimed call."""
        self.calls += 1
        self.packets += packets
        self.bytes += nbytes

    def add_timed(
        self,
        wall_ns: int,
        cpu_ns: int,
        allocs: int,
        packets: int = 1,
        nbytes: int = 0,
    ) -> None:
        """Account one call whose clocks the caller already read."""
        self.calls += 1
        self.packets += packets
        self.bytes += nbytes
        self.wall_ns += wall_ns
        self.cpu_ns += cpu_ns
        self.allocs += allocs
        self.timed_calls += 1

    def begin(self) -> Optional[Tuple[int, int, int]]:
        """Start a coarse-stage measurement; None when untimed."""
        if not self.sample():
            return None
        # The allocation probe is the GC's generation-0 count: a pair of
        # pointer reads that counts GC-tracked (container) allocations
        # since the last gen-0 collection.  ``sys.getallocatedblocks``
        # would be the obvious probe, but it is O(heap): it walks every
        # obmalloc pool, and on a warm heap (the repro package plus a
        # packet trace resident) one read costs ~6 µs, ~40x the clocks
        # beside it and enough on its own to blow the sampled path's
        # 1.15x budget.  A collection between two reads resets the
        # count, so deltas are clamped at 0 (:meth:`end`); the
        # occasional clamped sample is noise the calls/timed_calls
        # extrapolation already absorbs.
        return (
            gc.get_count()[0],
            time.process_time_ns(),
            time.perf_counter_ns(),
        )

    def end(
        self,
        token: Optional[Tuple[int, int, int]],
        packets: int = 0,
        nbytes: int = 0,
    ) -> None:
        """Finish the measurement started by :meth:`begin`."""
        if token is None:
            self.add(packets, nbytes)
            return
        wall = time.perf_counter_ns() - token[2]
        cpu = time.process_time_ns() - token[1]
        # Clamp: a gen-0 collection between begin and end resets the
        # counter (see begin).
        allocs = max(0, gc.get_count()[0] - token[0])
        self.add_timed(wall, cpu, allocs, packets, nbytes)


class Profiler:
    """Per-stage cost accounting with a deterministic document shape.

    Parameters
    ----------
    mode:
        ``"timers"`` for real clocks, ``"cost-model"`` for fixed per-op
        derivation (see module docstring).
    sample_every:
        In timers mode, per-packet stages time every N-th call and
        extrapolate; coarse stages (created with ``sample_every=1``)
        time every call.
    """

    def __init__(self, mode: str = "cost-model", sample_every: int = 64) -> None:
        if mode not in ("cost-model", "timers"):
            raise ValueError(
                f"unknown profiler mode {mode!r}; use 'cost-model' or 'timers'"
            )
        self.mode = mode
        self.sample_every = max(1, int(sample_every))
        self._stages: Dict[str, StageHandle] = {}

    def __len__(self) -> int:
        return len(self._stages)

    def stage(self, name: str, sample_every: Optional[int] = None) -> StageHandle:
        """Get-or-create the accumulator for *name* (bind-once point).

        ``sample_every`` overrides the profiler default for this stage
        (pass 1 for coarse per-period stages); it only applies when the
        handle is first created, and is forced to 0 (never time) in
        cost-model mode.
        """
        handle = self._stages.get(name)
        if handle is None:
            if self.mode == "cost-model":
                every = 0
            else:
                every = self.sample_every if sample_every is None else sample_every
            handle = StageHandle(name, every)
            self._stages[name] = handle
        return handle

    def stages(self) -> List[StageHandle]:
        """All handles, sorted by stage name."""
        return [self._stages[name] for name in sorted(self._stages)]

    # ------------------------------------------------------------------
    # Derived documents
    # ------------------------------------------------------------------
    def _costs(self, handle: StageHandle) -> Tuple[int, int, int, int]:
        """A stage's derived ``(ns_total, cpu_ns_total, allocs,
        timed_calls)``."""
        calls = handle.calls
        if self.mode == "cost-model":
            cost = COST_MODEL.get(handle.name, DEFAULT_COST)
            ns_total = (
                cost.per_call_ns * calls
                + cost.per_packet_ns * handle.packets
                + cost.per_byte_ns * handle.bytes
            )
            return ns_total, ns_total, cost.allocs_per_call * calls, 0
        if handle.timed_calls == 0:
            return 0, 0, 0, 0
        # Extrapolate sampled clocks to the full call count.
        scale = calls / handle.timed_calls
        return (
            int(handle.wall_ns * scale),
            int(handle.cpu_ns * scale),
            int(handle.allocs * scale),
            handle.timed_calls,
        )

    def _derive(self, handle: StageHandle) -> Dict[str, Any]:
        calls = handle.calls
        ns_total, cpu_ns, allocs, timed = self._costs(handle)
        return {
            "stage": handle.name,
            "calls": calls,
            "packets": handle.packets,
            "bytes": handle.bytes,
            "ns_total": ns_total,
            "cpu_ns_total": cpu_ns,
            "allocs": allocs,
            "timed_calls": timed,
            "ns_per_call": _ns_per(ns_total, calls),
            "ns_per_packet": _ns_per(ns_total, handle.packets),
        }

    def stage_documents(self) -> List[Dict[str, Any]]:
        """Per-stage rows with derived nanoseconds, sorted by name."""
        return [self._derive(h) for h in self.stages() if h.calls]

    def to_dict(self) -> Dict[str, Any]:
        """The profile document: stable key order, derived totals.

        In cost-model mode this document is a pure function of the
        stage counts — the byte-identity artifact the CI profile-smoke
        job diffs across ``--workers``.
        """
        rows = self.stage_documents()
        return {
            "mode": self.mode,
            "sample_every": self.sample_every,
            "stages": rows,
            "total_ns": sum(row["ns_total"] for row in rows),
            "total_calls": sum(row["calls"] for row in rows),
        }

    # ------------------------------------------------------------------
    # Shard capture / merge (counts only — derivation happens at export)
    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Raw counts for shipping a shard's profiler to the parent."""
        return {
            name: {field: getattr(handle, field) for field in _SNAPSHOT_FIELDS}
            for name, handle in sorted(self._stages.items())
            if handle.calls
        }

    def merge_from(self, snapshot: Dict[str, Dict[str, int]]) -> None:
        """Fold a :meth:`to_snapshot` dict into this profiler.

        Addition is commutative, but shards are folded in deterministic
        ``merge_order`` anyway, matching every other obs merge.
        """
        for name in sorted(snapshot):
            handle = self.stage(name)
            entry = snapshot[name]
            for field in _SNAPSHOT_FIELDS:
                setattr(handle, field, getattr(handle, field) + int(entry.get(field, 0)))


# ----------------------------------------------------------------------
# Document helpers
# ----------------------------------------------------------------------
def merge_stage_rows(
    documents: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Sum per-stage rows across profile documents (multi-run reports).

    Counts and totals add; per-call / per-packet rates are re-derived
    from the sums.  Rows come back sorted by stage name.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for document in documents:
        for row in document.get("stages", []):
            into = merged.setdefault(
                row["stage"],
                {
                    "stage": row["stage"],
                    "calls": 0,
                    "packets": 0,
                    "bytes": 0,
                    "ns_total": 0,
                    "cpu_ns_total": 0,
                    "allocs": 0,
                    "timed_calls": 0,
                },
            )
            for field in (
                "calls", "packets", "bytes", "ns_total",
                "cpu_ns_total", "allocs", "timed_calls",
            ):
                into[field] += int(row.get(field, 0))
    rows = []
    for name in sorted(merged):
        row = merged[name]
        row["ns_per_call"] = (
            round(row["ns_total"] / row["calls"], 1) if row["calls"] else 0.0
        )
        row["ns_per_packet"] = (
            round(row["ns_total"] / row["packets"], 1) if row["packets"] else 0.0
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Folded-stack (flamegraph) export
# ----------------------------------------------------------------------
def folded_stacks(document: Dict[str, Any], root: str = "syndog") -> str:
    """Render a profile document as folded stacks (``a;b;c value``).

    Dotted stage names become frame hierarchies (``pcap.parse`` →
    ``syndog;pcap;parse``), so ``flamegraph.pl prof.folded`` or any
    folded-stack viewer renders the pipeline directly.  An empty
    profile renders as the empty string.
    """
    lines = []
    for row in document.get("stages", []):
        frames = [root] + row["stage"].split(".")
        lines.append(f"{';'.join(frames)} {row['ns_total']}")
    return "".join(line + "\n" for line in lines)


def parse_folded(text: str) -> Dict[str, int]:
    """Parse folded stacks back into ``{stack: value}`` (round-trips)."""
    stacks: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            raise ValueError(f"malformed folded-stack line: {line!r}")
        stacks[stack] = stacks.get(stack, 0) + int(value)
    return stacks


def write_folded(
    document: Dict[str, Any], path: Union[str, Path], root: str = "syndog"
) -> int:
    """Write folded stacks to *path*; returns the number of stacks."""
    text = folded_stacks(document, root=root)
    Path(path).write_text(text, encoding="utf-8")
    return len(text.splitlines())


# ----------------------------------------------------------------------
# Callgrind export
# ----------------------------------------------------------------------
_CALLGRIND_EVENTS = ("Ns", "Calls", "Packets", "Bytes", "Allocs")
_CALLGRIND_FIELDS = ("ns_total", "calls", "packets", "bytes", "allocs")


def callgrind_format(document: Dict[str, Any], root: str = "syndog") -> str:
    """Render a profile document in callgrind format.

    One ``fn=`` record per stage, with a five-event cost line
    (nanoseconds, calls, packets, bytes, allocations) that kcachegrind
    and ``callgrind_annotate`` read directly.
    """
    mode = document.get("mode") or "disabled"
    lines = [
        "# callgrind format — repro.obs.profiler",
        "version: 1",
        f"creator: repro profiler (mode={mode})",
        f"events: {' '.join(_CALLGRIND_EVENTS)}",
        "",
        f"fl={root}/pipeline",
    ]
    for row in document.get("stages", []):
        costs = " ".join(str(int(row[field])) for field in _CALLGRIND_FIELDS)
        lines.append(f"fn={row['stage']}")
        lines.append(f"1 {costs}")
    totals = [0] * len(_CALLGRIND_FIELDS)
    for row in document.get("stages", []):
        for index, field in enumerate(_CALLGRIND_FIELDS):
            totals[index] += int(row[field])
    lines.append("")
    lines.append(f"summary: {' '.join(str(total) for total in totals)}")
    return "".join(line + "\n" for line in lines)


def parse_callgrind(text: str) -> Dict[str, Any]:
    """Parse callgrind text back into events + per-stage costs."""
    events: List[str] = []
    stages: Dict[str, Dict[str, int]] = {}
    summary: List[int] = []
    current: Optional[str] = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("events:"):
            events = line.split(":", 1)[1].split()
        elif line.startswith("fn="):
            current = line[3:]
        elif line.startswith("summary:"):
            summary = [int(token) for token in line.split(":", 1)[1].split()]
        elif current is not None and line[0].isdigit():
            values = [int(token) for token in line.split()]
            costs = stages.setdefault(
                current, {field: 0 for field in _CALLGRIND_FIELDS}
            )
            # values[0] is the position (line number); costs follow.
            for field, value in zip(_CALLGRIND_FIELDS, values[1:]):
                costs[field] += value
    return {"events": events, "stages": stages, "summary": summary}


def write_callgrind(
    document: Dict[str, Any], path: Union[str, Path], root: str = "syndog"
) -> int:
    """Write a callgrind file; returns the number of stages exported."""
    Path(path).write_text(callgrind_format(document, root=root), encoding="utf-8")
    return len(document.get("stages", []))
