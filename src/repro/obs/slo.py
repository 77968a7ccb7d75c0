"""Declarative SLOs with multi-window burn-rate evaluation.

A soak run (and a production fleet) is judged against *objectives*,
not raw counters: "at most 1% of quiet periods may carry a false
alarm", "the detector must catch 95% of floods within its latency
target", "event loss stays under 0.1%".  This module turns those
sentences into data: an :class:`SLOSpec` names a *bad-event* and a
*total-event* query over the existing :class:`~repro.obs.tsdb.
TimeSeriesDB`, plus an error budget (the allowed bad fraction), and
the :class:`SLOEngine` evaluates it the way production SRE practice
does — as **multi-window burn rates** (Google SRE workbook, ch. 5):

    burn_rate(W) = (bad(W) / total(W)) / budget

A burn rate of 1.0 consumes the budget exactly at the sustainable
pace; a pair of windows (one short, one long) must *both* exceed a
pair threshold before the SLO counts as *burning* — the short window
gives fast reaction, the long window suppresses blips.  On top of the
pairs the engine reports total budget consumption over the whole
retained horizon, so a soak's final verdict distinguishes ``ok`` /
``burning`` / ``exhausted`` / ``no_data`` per objective.

Everything is evaluated over logical-time feed samples, so — like the
alerts replay — the same merged store yields byte-identical SLO
documents at any ``--workers``.  :meth:`SLOEngine.record` writes the
computed ``slo_burning{slo=...}`` / ``slo_budget_consumed{slo=...}``
indicator series back into the store, which is what lets plain
PromQL-lite alert rules (:func:`slo_rules`, wired through
:func:`repro.obs.alerts.builtin_rules` with ``slo=True``) page on
budget exhaustion without needing vector division in the query
language.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .alerts import AlertRule
from .tsdb import Query, parse_query

__all__ = [
    "SLOSpec",
    "SLOEngine",
    "builtin_slos",
    "slo_rules",
    "DEFAULT_BURN_WINDOWS",
]

#: Multi-window burn-rate pairs ``(short_seconds, long_seconds,
#: threshold)`` — the standard fast/mid/slow ladder, in simulated
#: seconds (periods are t0 = 20 s, so the 1 h window spans 180
#: periods).  A pair trips only when *both* its windows burn faster
#: than the threshold.
DEFAULT_BURN_WINDOWS: Tuple[Tuple[float, float, float], ...] = (
    (300.0, 3600.0, 14.4),     # 5 m / 1 h  — page-fast
    (3600.0, 21600.0, 6.0),    # 1 h / 6 h  — page-slow
    (21600.0, 86400.0, 1.0),   # 6 h / 1 d  — ticket
)

#: Float rounding for canonical SLO documents (matches the chaos/soak
#: report convention).
_ROUND = 9


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), _ROUND)


class SLOSpec:
    """One declarative objective over the time-series store.

    Parameters
    ----------
    name:
        Unique objective identifier (labels the indicator series).
    description:
        The human sentence the spec encodes.
    budget:
        Allowed bad fraction in ``(0, 1)`` — the error budget.
    bad_exprs / total_exprs:
        Parallel candidate lists of PromQL-lite range expressions with
        a ``{window}`` placeholder in the range brackets.  The engine
        uses the first candidate *pair* whose total expression returns
        data — letting one spec prefer ground-truth series a soak feeds
        (``soak_false_alarm``) and fall back to live detector series
        (``syndog_alarm_active``) outside a soak.
    windows:
        Burn-rate pairs, see :data:`DEFAULT_BURN_WINDOWS`.

    Each expression is compiled once, here, into ``bad_queries`` /
    ``total_queries``; the engine sets the window of every evaluation
    with :meth:`~repro.obs.tsdb.Query.with_duration` instead of
    formatting and re-parsing the text.
    """

    __slots__ = (
        "name", "description", "budget", "bad_exprs", "total_exprs",
        "windows", "bad_queries", "total_queries",
    )

    def __init__(
        self,
        name: str,
        description: str,
        budget: float,
        bad_exprs: Sequence[str],
        total_exprs: Sequence[str],
        windows: Sequence[Tuple[float, float, float]] = DEFAULT_BURN_WINDOWS,
    ) -> None:
        if not name:
            raise ValueError("SLO spec needs a name")
        if not 0.0 < budget < 1.0:
            raise ValueError(
                f"budget must be a fraction in (0, 1) for {name!r}: {budget}"
            )
        if len(bad_exprs) != len(total_exprs) or not bad_exprs:
            raise ValueError(
                f"{name!r} needs matched, non-empty bad/total expression "
                f"lists: {len(bad_exprs)} vs {len(total_exprs)}"
            )
        self.name = name
        self.description = description
        self.budget = float(budget)
        self.bad_exprs = tuple(bad_exprs)
        self.total_exprs = tuple(total_exprs)
        self.windows = tuple(
            (float(short), float(long), float(threshold))
            for short, long, threshold in windows
        )
        self.bad_queries = tuple(_compile_windowed(e) for e in bad_exprs)
        self.total_queries = tuple(_compile_windowed(e) for e in total_exprs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "budget": self.budget,
            "bad_exprs": list(self.bad_exprs),
            "total_exprs": list(self.total_exprs),
            "windows": [list(pair) for pair in self.windows],
        }

    def __repr__(self) -> str:
        return f"SLOSpec({self.name!r}, budget={self.budget})"


def _compile_windowed(template: str) -> Query:
    """Parse a ``{window}`` range template once, at a placeholder window."""
    query = parse_query(template.format(window="1s"))
    if "{window}" not in template or query.func is None:
        raise ValueError(
            f"SLO expression must be a range query over [{{window}}]: "
            f"{template!r}"
        )
    return query


def builtin_slos() -> List[SLOSpec]:
    """The four standing objectives a soak judges the detector by.

    * **detection_latency** — at most 5% of attack windows may be
      missed or detected later than the latency target (the soak feeds
      one ``soak_detection_miss`` sample per attack window; Eq. 8 says
      every in-scope flood is detectable).
    * **false_alarm_budget** — CUSUM's bounded false-alarm guarantee,
      measured: at most 1% of quiet periods may carry an alarm.
      Prefers the soak's ground-truth ``soak_false_alarm`` indicator;
      outside a soak every alarm-active period counts against the
      budget.
    * **availability** — at most 2% of periods may run degraded
      (carried-forward or held counts).
    * **event_loss** — bounded sinks may drop at most 0.1% of emitted
      events.
    """
    detection_budget = 0.05
    false_alarm_budget = 0.01
    degraded_budget = 0.02
    event_loss_budget = 0.001
    return [
        SLOSpec(
            name="detection_latency",
            description=(
                "attack windows detected within the latency target "
                f"(miss budget {detection_budget:g})"
            ),
            budget=detection_budget,
            bad_exprs=("sum_over_time(soak_detection_miss[{window}])",),
            total_exprs=("count_over_time(soak_detection_miss[{window}])",),
        ),
        SLOSpec(
            name="false_alarm_budget",
            description=(
                "quiet periods free of false alarms "
                f"(false-alarm budget {false_alarm_budget:g})"
            ),
            budget=false_alarm_budget,
            bad_exprs=(
                "sum_over_time(soak_false_alarm[{window}])",
                "sum_over_time(syndog_alarm_active[{window}])",
            ),
            total_exprs=(
                "count_over_time(soak_false_alarm[{window}])",
                "count_over_time(syndog_alarm_active[{window}])",
            ),
        ),
        SLOSpec(
            name="availability",
            description=(
                "periods observed rather than degraded "
                f"(degraded-time budget {degraded_budget:g})"
            ),
            budget=degraded_budget,
            bad_exprs=("sum_over_time(syndog_degraded[{window}])",),
            total_exprs=("count_over_time(syndog_degraded[{window}])",),
        ),
        SLOSpec(
            name="event_loss",
            description=(
                "emitted events retained by bounded sinks "
                f"(loss budget {event_loss_budget:g})"
            ),
            budget=event_loss_budget,
            bad_exprs=("increase(obs_events_dropped_total[{window}])",),
            total_exprs=("increase(obs_events_emitted_total[{window}])",),
        ),
    ]


class SLOEngine:
    """Evaluates a spec list against a TSDB and records indicators."""

    def __init__(self, specs: Optional[Sequence[SLOSpec]] = None) -> None:
        specs = list(specs) if specs is not None else builtin_slos()
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.specs: Tuple[SLOSpec, ...] = tuple(specs)

    # ------------------------------------------------------------------
    def _ratio(
        self, tsdb: Any, spec: SLOSpec, window: float, at: float
    ) -> Tuple[Optional[float], Optional[float]]:
        """``(bad, total)`` over the trailing *window*, from the first
        candidate expression pair whose total returns data.  The window
        is truncated to whole seconds, as the ``{window}`` text always
        was."""
        seconds = float(int(window))
        for bad_query, total_query in zip(spec.bad_queries, spec.total_queries):
            total_vector = tsdb.query(total_query.with_duration(seconds), at=at)
            if not total_vector:
                continue
            total = sum(entry["value"] for entry in total_vector)
            bad_vector = tsdb.query(bad_query.with_duration(seconds), at=at)
            bad = sum(entry["value"] for entry in bad_vector)
            return bad, total
        return None, None

    def _burn(
        self, tsdb: Any, spec: SLOSpec, window: float, at: float
    ) -> Optional[float]:
        bad, total = self._ratio(tsdb, spec, window, at)
        if total is None or total <= 0.0:
            return None
        return (bad / total) / spec.budget

    # ------------------------------------------------------------------
    def evaluate(
        self, tsdb: Any, at: Optional[float] = None
    ) -> Dict[str, Any]:
        """The SLO document at watermark *at* (default: newest sample).

        Per spec: every burn-window pair with both rates, whether the
        pair breached, total budget consumption over the full retained
        horizon, and a verdict in ``ok`` / ``burning`` / ``exhausted``
        / ``no_data``.  The overall verdict is the worst per-spec one.
        """
        if at is None:
            at = tsdb.last_time()
        slos: List[Dict[str, Any]] = []
        for spec in self.specs:
            if at is None:
                slos.append(self._no_data(spec))
                continue
            windows = []
            burning = False
            for short, long_, threshold in spec.windows:
                short_burn = self._burn(tsdb, spec, short, at)
                long_burn = self._burn(tsdb, spec, long_, at)
                breached = (
                    short_burn is not None
                    and long_burn is not None
                    and short_burn > threshold
                    and long_burn > threshold
                )
                burning = burning or breached
                windows.append(
                    {
                        "short_seconds": short,
                        "long_seconds": long_,
                        "threshold": threshold,
                        "short_burn": _round(short_burn),
                        "long_burn": _round(long_burn),
                        "breached": breached,
                    }
                )
            # Full-horizon budget consumption: one window reaching back
            # past every retained sample.
            horizon = at + 1.0
            bad, total = self._ratio(tsdb, spec, horizon, at)
            if total is None or total <= 0.0:
                slos.append(self._no_data(spec, windows))
                continue
            consumed = (bad / total) / spec.budget
            verdict = "ok"
            if consumed >= 1.0:
                verdict = "exhausted"
            elif burning:
                verdict = "burning"
            slos.append(
                {
                    "name": spec.name,
                    "description": spec.description,
                    "budget": spec.budget,
                    "verdict": verdict,
                    "bad": _round(bad),
                    "total": _round(total),
                    "budget_consumed": _round(consumed),
                    "windows": windows,
                }
            )
        order = {"no_data": 0, "ok": 1, "burning": 2, "exhausted": 3}
        worst = "no_data"
        for entry in slos:
            if order[entry["verdict"]] > order[worst]:
                worst = entry["verdict"]
        return {
            "at": None if at is None else _round(at),
            "verdict": worst,
            "slos": slos,
        }

    @staticmethod
    def _no_data(
        spec: SLOSpec, windows: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, Any]:
        return {
            "name": spec.name,
            "description": spec.description,
            "budget": spec.budget,
            "verdict": "no_data",
            "bad": None,
            "total": None,
            "budget_consumed": None,
            "windows": windows or [],
        }

    # ------------------------------------------------------------------
    def record(
        self, tsdb: Any, document: Optional[Dict[str, Any]] = None,
        at: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evaluate (unless *document* is given) and append the
        indicator series — ``slo_burning{slo=...}`` (1.0 while any
        burn-window pair is breached) and
        ``slo_budget_consumed{slo=...}`` — at the document's watermark.
        These are plain feed samples: computed from logical-time
        samples only, they merge and replay deterministically, and
        :func:`slo_rules` pages off them."""
        if document is None:
            document = self.evaluate(tsdb, at=at)
        t = document.get("at")
        if t is None:
            return document
        for entry in document["slos"]:
            if entry["verdict"] == "no_data":
                continue
            labels = {"slo": entry["name"]}
            tsdb.append(
                "slo_burning", labels, float(t),
                1.0 if entry["verdict"] in ("burning", "exhausted") else 0.0,
            )
            tsdb.append(
                "slo_budget_consumed", labels, float(t),
                float(entry["budget_consumed"]),
            )
        return document


def slo_rules() -> List[AlertRule]:
    """Budget-exhaustion alert rules over the recorded indicator series
    of the :func:`builtin_slos`, each over the last hour.

    Two rules per objective: ``slo_<name>_burn`` pages while a
    multi-window pair is breached (the engine already encoded the
    two-window AND into ``slo_burning``), and
    ``slo_<name>_budget_exhausted`` pages once total consumption
    reaches the full budget.  Inactive until an
    :meth:`SLOEngine.record` pass has fed the series — the same
    stays-quiet contract as the fleet rules on single-agent runs.
    """
    window = "1h"
    rules: List[AlertRule] = []
    for spec in builtin_slos():
        rules.append(
            AlertRule(
                name=f"slo_{spec.name}_burn",
                expr=(
                    f'last_over_time(slo_burning{{slo="{spec.name}"}}'
                    f"[{window}]) > 0"
                ),
                for_periods=1,
                severity="page",
                description=(
                    f"SLO {spec.name} is burning its error budget "
                    "faster than a multi-window threshold allows"
                ),
            )
        )
        rules.append(
            AlertRule(
                name=f"slo_{spec.name}_budget_exhausted",
                expr=(
                    f'last_over_time(slo_budget_consumed{{slo="{spec.name}"}}'
                    f"[{window}]) >= 1"
                ),
                for_periods=1,
                severity="page",
                description=(
                    f"SLO {spec.name} has consumed its entire error "
                    f"budget ({spec.budget:g})"
                ),
            )
        )
    return rules
