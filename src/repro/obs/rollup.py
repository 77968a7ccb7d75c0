"""Fleet telemetry rollups: mergeable digests over agent state.

Every per-agent obs surface — ``/healthz`` rows, ``syndog_*`` series,
flight-recorder rings — grows with the number of detectors.  This
module is the reduction layer: the running summaries of detectors that
ran (a :class:`~repro.router.Federation`'s members, a flight
recorder's tapes, or an event log replayed) fold into one compact,
*mergeable* digest, and every fleet surface (the ``/fleet`` endpoint,
``fleet_*`` TSDB series, fleet alert rules, ``repro fleet``) reads
only the reduction — O(K·buckets) however many agents it folds.

Three sketches, one rollup
--------------------------
:class:`QuantileDigest`
    A fixed-bucket histogram over one per-agent metric (``delta``,
    ``x_n``, ``cusum``, ``degraded_periods``) with count/sum/min/max
    sidecars.  Bucket bounds are fixed at construction, so merging two
    digests is element-wise integer addition — exact and associative.
    Quantiles interpolate within a bucket and clamp to the observed
    ``[min, max]``, so the open-ended overflow bucket can never report
    ``+inf``.
:class:`SpaceSavingTopK`
    The Metwally/Agrawal/El Abbadi Space-Saving summary, bounded to K
    counters, used for the "most alarming / most degraded /
    highest-CUSUM" suspect rankings.  ``mode="sum"`` is the classic
    heavy-hitter counter (weights add; evictions inherit the victim's
    weight and record it as the entry's error bound); ``mode="max"``
    ranks by a point-in-time value (a CUSUM level is not additive).
    All ties break on the agent name, so the summary is deterministic.
:class:`FleetRollup`
    Per-status population counters (``ok``/``degraded``/``alarming``/
    ``down``), one digest per metric, one top-K per ranking, plus the
    derived ``quorum`` and ``alarm_fraction``.

Merge algebra
-------------
``merge_from`` folds another rollup (or its ``to_dict`` snapshot) in;
``repro report`` over several event logs merges their rollups this way
(:func:`repro.obs.merge.merge_rollup_snapshots`).  Counters and bucket
counts are integer additions — exact, associative, commutative.
Min/max are lattice joins.  Float ``sum`` sidecars are the one
order-sensitive fold; merges iterate metrics and top-K entries in
sorted-key order ("order-normalized") and fold snapshots in the order
given, so the same inputs give the same bytes.  Top-K truncation makes
the ranking itself approximate beyond K distinct keys (the recorded
``error`` bounds the overestimate, standard Space-Saving semantics);
below K keys the merge is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .runtime import NO_PERIOD, AgentSummary, period_of

__all__ = [
    "AgentState",
    "DEFAULT_TOP_K",
    "FleetRollup",
    "QuantileDigest",
    "ROLLUP_BUCKETS",
    "SpaceSavingTopK",
    "rollup_from_events",
]

#: Suspect-table size: every top-K ranking and the ``/fleet`` document
#: are bounded by this, independent of fleet size.
DEFAULT_TOP_K = 8

#: Fixed bucket upper bounds per rolled-up metric.  Values above the
#: last bound land in an implicit overflow bucket; quantiles there
#: report the observed max, never ``+inf``.  Fixed bounds are what make
#: the merge exact: two digests over the same bounds add bucket-wise.
ROLLUP_BUCKETS: Dict[str, Tuple[float, ...]] = {
    # SYN-SYNACK difference per period: negative under normal tear-down
    # jitter, grows without bound under flooding.
    "delta": (
        -1000.0, -100.0, -10.0, -1.0, 0.0, 1.0, 2.0, 5.0, 10.0, 25.0,
        50.0, 100.0, 250.0, 1000.0, 10000.0, 100000.0,
    ),
    # Normalized per-period statistic X_n: hovers near 0 when healthy.
    "x_n": (
        -0.5, -0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7,
        1.0, 1.5, 2.0,
    ),
    # CUSUM level y_n: the default alarm threshold is N = 1.05, so the
    # bounds are dense around [0.8, 1.2] where the p99 rule watches.
    "cusum": (
        0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.05, 1.2, 1.5,
        2.0, 3.0, 5.0,
    ),
    # Lifetime degraded-period count per agent.
    "degraded_periods": (
        0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0, 1000.0,
    ),
}

#: The per-agent metrics every rollup digests, in canonical order.
ROLLUP_METRICS: Tuple[str, ...] = ("delta", "x_n", "cusum", "degraded_periods")

#: name -> Space-Saving mode for the suspect rankings.
ROLLUP_RANKINGS: Tuple[Tuple[str, str], ...] = (
    ("alarms", "sum"),       # most alarming: lifetime alarm count
    ("cusum", "max"),        # highest current CUSUM level
    ("degraded", "sum"),     # most degraded periods
)

_STATUSES = ("ok", "degraded", "alarming", "down")


@dataclass(frozen=True)
class AgentState:
    """One agent's current detector state, the rollup's input row."""

    name: str
    delta: float = 0.0
    x: float = 0.0
    cusum: float = 0.0
    degraded_periods: int = 0
    alarms: int = 0
    alarm: bool = False
    down: bool = False

    @classmethod
    def from_summary(
        cls, name: str, summary: AgentSummary, down: bool = False
    ) -> "AgentState":
        """The rollup row of one agent's running summary."""
        last = summary.last or NO_PERIOD
        return cls(
            name=name,
            delta=float(last[3] - last[4]),
            x=float(last[6]),
            cusum=float(last[7] or 0.0),
            degraded_periods=summary.degraded,
            alarms=summary.alarms,
            alarm=summary.alarm,
            down=down,
        )

    @property
    def status(self) -> str:
        """Down dominates alarming dominates degraded dominates ok."""
        if self.down:
            return "down"
        if self.alarm:
            return "alarming"
        if self.degraded_periods > 0:
            return "degraded"
        return "ok"


class QuantileDigest:
    """Fixed-bucket quantile digest with exact, associative merge."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned:
            raise ValueError("bounds must be non-empty")
        if list(cleaned) != sorted(cleaned):
            raise ValueError(f"bounds must be ascending: {cleaned}")
        if any(math.isinf(b) or math.isnan(b) for b in cleaned):
            raise ValueError(f"bounds must be finite: {cleaned}")
        self.bounds = cleaned
        # One extra slot: the implicit open-ended overflow bucket.
        self.counts = [0] * (len(cleaned) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket lists are ~16 long and this is the
        # rollup hot path only once per agent, not per packet.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1) by in-bucket interpolation.

        Returns None on an empty digest.  A target inside the overflow
        bucket reports the observed max — the digest never invents
        values above what it saw.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1]: {q}")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count < target:
                cumulative += bucket_count
                continue
            if i >= len(self.bounds):
                return self.max
            upper = self.bounds[i]
            lower = self.bounds[i - 1] if i > 0 else self.min
            fraction = (target - cumulative) / bucket_count
            value = lower + (upper - lower) * max(0.0, min(1.0, fraction))
            return min(self.max, max(self.min, value))
        return self.max

    def merge_from(self, other: "QuantileDigest") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"digest bounds differ: {self.bounds} vs {other.bounds}"
            )
        for i, bucket_count in enumerate(other.counts):
            self.counts[i] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuantileDigest":
        digest = cls(payload["bounds"])
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(digest.counts):
            raise ValueError(
                f"counts length {len(counts)} does not match "
                f"{len(digest.bounds)} bounds"
            )
        digest.counts = counts
        digest.count = int(payload["count"])
        digest.sum = float(payload["sum"])
        digest.min = None if payload["min"] is None else float(payload["min"])
        digest.max = None if payload["max"] is None else float(payload["max"])
        return digest

    def __repr__(self) -> str:
        return (
            f"QuantileDigest(count={self.count}, min={self.min}, "
            f"max={self.max}, buckets={len(self.bounds)})"
        )


class SpaceSavingTopK:
    """Bounded top-K summary with deterministic (name) tie-breaking.

    ``mode="sum"`` is classic Space-Saving over additive weights: when
    a new key arrives at capacity it evicts the minimum entry,
    inherits its weight, and records that weight as the new entry's
    ``error`` (the true weight lies in ``[weight - error, weight]``).
    ``mode="max"`` ranks keys by a point-in-time level: a new key only
    displaces the minimum when its value is strictly larger (or equal
    with a lexicographically smaller name, keeping merges
    order-insensitive), and ``error`` stays 0.
    """

    __slots__ = ("k", "mode", "_entries")

    def __init__(self, k: int = DEFAULT_TOP_K, mode: str = "sum") -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        if mode not in ("sum", "max"):
            raise ValueError(f"mode must be 'sum' or 'max': {mode!r}")
        self.k = k
        self.mode = mode
        self._entries: Dict[str, List[float]] = {}  # name -> [weight, error]

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, name: str, weight: float, error: float = 0.0) -> None:
        weight = float(weight)
        entry = self._entries.get(name)
        if entry is not None:
            if self.mode == "sum":
                entry[0] += weight
                entry[1] += error
            elif weight > entry[0]:
                entry[0] = weight
            return
        if len(self._entries) < self.k:
            self._entries[name] = [weight, float(error)]
            return
        victim_name, victim = self._min_entry()
        if self.mode == "sum":
            del self._entries[victim_name]
            # The newcomer inherits the victim's count — it may have
            # been seen victim-weight times already; record that as
            # the error bound.
            self._entries[name] = [victim[0] + weight, victim[0] + error]
        else:
            if weight > victim[0] or (
                weight == victim[0] and name < victim_name
            ):
                del self._entries[victim_name]
                self._entries[name] = [weight, 0.0]

    def _min_entry(self) -> Tuple[str, List[float]]:
        # Ties on weight break toward the lexicographically *largest*
        # name so the surviving set is independent of arrival order.
        return max(self._entries.items(), key=lambda kv: (-kv[1][0], kv[0]))

    def merge_from(self, other: "SpaceSavingTopK") -> None:
        if other.mode != self.mode or other.k != self.k:
            raise ValueError(
                f"top-K shape differs: k={self.k}/{self.mode} vs "
                f"k={other.k}/{other.mode}"
            )
        # Order-normalized: fold the other summary's entries in sorted
        # name order so the result never depends on its dict order.
        for name in sorted(other._entries):
            weight, error = other._entries[name]
            self.offer(name, weight, error)

    def top(self) -> List[Dict[str, Any]]:
        """Entries by descending weight, name-ascending on ties."""
        ranked = sorted(
            self._entries.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        return [
            {"agent": name, "weight": weight, "error": error}
            for name, (weight, error) in ranked
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.k, "mode": self.mode, "entries": self.top()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpaceSavingTopK":
        summary = cls(int(payload["k"]), str(payload["mode"]))
        for entry in payload["entries"]:
            summary._entries[str(entry["agent"])] = [
                float(entry["weight"]), float(entry["error"]),
            ]
        if len(summary._entries) > summary.k:
            raise ValueError(
                f"{len(summary._entries)} entries exceed k={summary.k}"
            )
        return summary

    def __repr__(self) -> str:
        return (
            f"SpaceSavingTopK(k={self.k}, mode={self.mode!r}, "
            f"entries={len(self._entries)})"
        )


class FleetRollup:
    """The fleet reduction: counters + digests + suspect rankings.

    Built by :meth:`observe`-ing per-agent states (or
    :meth:`from_summaries`), merged with :meth:`merge_from`, serialized
    with :meth:`to_dict` — the ``/fleet`` document.  The
    document is O(K·buckets): four fixed-width digests, three ≤K-entry
    rankings, one counter block, regardless of how many agents were
    folded in.
    """

    def __init__(self, k: int = DEFAULT_TOP_K) -> None:
        self.k = k
        self.counts: Dict[str, int] = {status: 0 for status in _STATUSES}
        self.counts["total"] = 0
        self.digests: Dict[str, QuantileDigest] = {
            metric: QuantileDigest(ROLLUP_BUCKETS[metric])
            for metric in ROLLUP_METRICS
        }
        self.top: Dict[str, SpaceSavingTopK] = {
            name: SpaceSavingTopK(k, mode) for name, mode in ROLLUP_RANKINGS
        }
        #: Largest logical detector time folded in (None before any).
        self.watermark: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(self, state: AgentState) -> None:
        """Fold one agent into the rollup."""
        self.counts["total"] += 1
        self.counts[state.status] += 1
        self.digests["delta"].observe(state.delta)
        self.digests["x_n"].observe(state.x)
        self.digests["cusum"].observe(state.cusum)
        self.digests["degraded_periods"].observe(state.degraded_periods)
        self.top["cusum"].offer(state.name, state.cusum)
        if state.degraded_periods > 0:
            self.top["degraded"].offer(state.name, state.degraded_periods)
        if state.alarms > 0:
            self.top["alarms"].offer(state.name, state.alarms)

    @classmethod
    def from_summaries(
        cls,
        summaries: Mapping[str, AgentSummary],
        down: AbstractSet[str] = frozenset(),
    ) -> "FleetRollup":
        """The rollup of running summaries by agent name, stamped with
        the latest period end-time among them.  *down* names the agents
        known to be down: a flight recorder has no liveness, a
        federation and an event log do."""
        rollup = cls()
        ends = []
        for name in sorted(summaries):
            summary = summaries[name]
            rollup.observe(AgentState.from_summary(name, summary, name in down))
            if summary.last is not None and summary.last[2] is not None:
                ends.append(summary.last[2])
        rollup.watermark = float(max(ends)) if ends else None
        return rollup

    # ------------------------------------------------------------------
    @property
    def quorum(self) -> float:
        """Reachable fraction of the fleet (1.0 for an empty fleet)."""
        total = self.counts["total"]
        if total == 0:
            return 1.0
        return (total - self.counts["down"]) / total

    @property
    def alarm_fraction(self) -> float:
        total = self.counts["total"]
        if total == 0:
            return 0.0
        return self.counts["alarming"] / total

    # ------------------------------------------------------------------
    def merge_from(self, other: "FleetRollup") -> None:
        """Fold another rollup in (another event log's fleet)."""
        if other.k != self.k:
            raise ValueError(f"top-K size differs: {self.k} vs {other.k}")
        for status in sorted(other.counts):
            self.counts[status] = self.counts.get(status, 0) + other.counts[status]
        for metric in ROLLUP_METRICS:
            self.digests[metric].merge_from(other.digests[metric])
        for name, _mode in ROLLUP_RANKINGS:
            self.top[name].merge_from(other.top[name])
        if other.watermark is not None and (
            self.watermark is None or other.watermark > self.watermark
        ):
            self.watermark = other.watermark

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot in (cross-process shape)."""
        self.merge_from(FleetRollup.from_dict(snapshot))

    # ------------------------------------------------------------------
    def quantile(self, metric: str, q: float) -> Optional[float]:
        return self.digests[metric].quantile(q)

    def fleet_series(self) -> List[Tuple[str, float]]:
        """The ``fleet_*`` TSDB samples this rollup emits, in a fixed
        order.  Quantiles of empty digests are skipped, not zeroed."""
        samples: List[Tuple[str, float]] = [
            ("fleet_agents_total", float(self.counts["total"])),
            ("fleet_agents_ok", float(self.counts["ok"])),
            ("fleet_agents_degraded", float(self.counts["degraded"])),
            ("fleet_agents_alarming", float(self.counts["alarming"])),
            ("fleet_agents_down", float(self.counts["down"])),
            ("fleet_quorum", self.quorum),
            ("fleet_alarm_fraction", self.alarm_fraction),
        ]
        for metric, quantile_name, q in (
            ("cusum", "p50", 0.50),
            ("cusum", "p99", 0.99),
            ("delta", "p99", 0.99),
            ("degraded_periods", "p99", 0.99),
        ):
            value = self.digests[metric].quantile(q)
            if value is not None:
                key = "degraded" if metric == "degraded_periods" else metric
                samples.append((f"fleet_{key}_{quantile_name}", value))
        cusum_max = self.digests["cusum"].max
        if cusum_max is not None:
            samples.append(("fleet_cusum_max", cusum_max))
        return samples

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The canonical ``/fleet`` document (JSON-ready, sorted)."""
        digests: Dict[str, Any] = {}
        for metric in ROLLUP_METRICS:
            digest = self.digests[metric]
            payload = digest.to_dict()
            payload["quantiles"] = {
                "p50": digest.quantile(0.50),
                "p90": digest.quantile(0.90),
                "p99": digest.quantile(0.99),
            }
            digests[metric] = payload
        return {
            "k": self.k,
            "watermark": self.watermark,
            "agents": {
                "total": self.counts["total"],
                "ok": self.counts["ok"],
                "degraded": self.counts["degraded"],
                "alarming": self.counts["alarming"],
                "down": self.counts["down"],
                "quorum": self.quorum,
                "alarm_fraction": self.alarm_fraction,
            },
            "digests": digests,
            "top": {name: self.top[name].to_dict() for name, _ in ROLLUP_RANKINGS},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetRollup":
        rollup = cls(k=int(payload["k"]))
        agents = payload["agents"]
        for status in _STATUSES:
            rollup.counts[status] = int(agents[status])
        rollup.counts["total"] = int(agents["total"])
        for metric in ROLLUP_METRICS:
            rollup.digests[metric] = QuantileDigest.from_dict(
                payload["digests"][metric]
            )
        for name, mode in ROLLUP_RANKINGS:
            summary = SpaceSavingTopK.from_dict(payload["top"][name])
            if summary.mode != mode:
                raise ValueError(
                    f"ranking {name!r} mode {summary.mode!r} != {mode!r}"
                )
            rollup.top[name] = summary
        watermark = payload.get("watermark")
        rollup.watermark = None if watermark is None else float(watermark)
        return rollup

    def canonical(self, places: int = 9) -> Dict[str, Any]:
        """The document with float sums/weights rounded — the
        comparison form for merge orders that fold floats differently
        (Hypothesis commutativity-up-to-canonicalization)."""
        def _round(value: Any) -> Any:
            if isinstance(value, float):
                return round(value, places)
            if isinstance(value, dict):
                return {key: _round(value[key]) for key in sorted(value)}
            if isinstance(value, list):
                return [_round(item) for item in value]
            return value

        return _round(self.to_dict())

    def __repr__(self) -> str:
        return (
            f"FleetRollup(total={self.counts['total']}, "
            f"alarming={self.counts['alarming']}, "
            f"down={self.counts['down']}, k={self.k})"
        )


# ----------------------------------------------------------------------
# Builders: event logs
# ----------------------------------------------------------------------
def rollup_from_events(events: Iterable[Mapping[str, Any]]) -> FleetRollup:
    """Offline rollup (``repro fleet --events``): replay the log into
    per-agent running summaries, folding ``period`` events as the
    detector folded them, with ``federation_member_crashed`` /
    ``_restarted`` events toggling liveness.  A member that crashed
    before its first period still counts, or quorum would be
    overstated.  A ``period`` event without a ``period_index`` takes
    the agent's next one, as ``repro report`` reads it."""
    summaries: Dict[str, AgentSummary] = {}
    down = set()
    for event in events:
        kind, agent = event.get("event"), event.get("agent")
        if agent is None:
            continue
        if kind == "period":
            summary = summaries.get(agent)
            if summary is None:
                summary = summaries[agent] = AgentSummary()
            period = period_of(event)
            if period[0] is None:
                period = (summary.periods, *period[1:])
            summary.fold(period)
        elif kind == "federation_member_crashed":
            summaries.setdefault(agent, AgentSummary())
            down.add(agent)
        elif kind == "federation_member_restarted":
            down.discard(agent)
    return FleetRollup.from_summaries(summaries, down=down)
