"""A live telemetry endpoint for a running detector fleet.

PR 1's obs layer writes its exports when a run *finishes*; an operator
watching a live SYN-dog wants to scrape it while it runs.  This module
is the serving half: :class:`ObsServer` wraps one
:class:`~repro.obs.runtime.Instrumentation` bundle in a
``ThreadingHTTPServer`` on a daemon thread — dependency-free, stdlib
only — with three endpoints:

``GET /metrics``
    The current registry in Prometheus text exposition format 0.0.4,
    with the profiler's stage counters and event-loss counters folded
    in at scrape time, exactly as ``finalize`` would write them.
``GET /healthz``
    A JSON liveness probe: uptime, events emitted/dropped, and — via
    the flight recorder — a bounded per-status ``summary`` (counts of
    ok/degraded/alarming/down agents plus quorum, O(1) in fleet size;
    down is the recorder's liveness set, which a federation marks).  The
    full per-agent map is included only while the fleet is at or below
    :data:`HEALTHZ_AGENTS_LIMIT` agents; above it the document reports
    ``agents_omitted`` instead, so the probe stays small however many
    agents report.
    ``status`` is honest: ``alarming`` when any agent's alarm is up or
    an alert rule is firing, ``degraded`` on event drops / degraded
    periods / pending alerts / a down agent, ``ok`` otherwise.
``GET /events?n=K[&kind=period]``
    The last K events from the bundle's in-memory sink as JSON, for a
    quick ``curl | jq`` without shipping the whole JSONL.
``GET /query?expr=EXPR[&at=T]``
    Evaluate a PromQL-lite expression (:mod:`repro.obs.tsdb`) against
    the bundle's telemetry history store; 400 on a malformed
    expression, 503 when the store is disabled.
``GET /alerts``
    The alert manager's full document — rules, lifecycle states and
    the transition history (:mod:`repro.obs.alerts`).
``GET /profile``
    The hot-path profiler's per-stage cost document
    (:mod:`repro.obs.profiler`); 503 when profiling is off.
``GET /fleet``
    The fleet telemetry rollup (:mod:`repro.obs.rollup`) built from
    the flight recorder's live per-agent state: population counters,
    quantile digests over delta/X_n/CUSUM/degraded-periods, and the
    top-K suspect rankings.  The document is O(K·buckets) — its size
    does not grow with the fleet.  503 when the recorder is off.
``GET /slo?[at=T]``
    Multi-window burn-rate evaluation of the built-in SLOs
    (:mod:`repro.obs.slo`) against the bundle's telemetry history
    store at instant ``T`` (default: the store's watermark): per-SLO
    verdicts, budget consumption and per-window burn pairs.  503 when
    the store is disabled, 400 on a non-finite ``at``.

The server never mutates detector state and holds no locks against the
detection path: scrapes read the live counters (safe under the GIL for
these single-attribute reads) so a scrape can never stall ingestion.

Lock order
----------
Route handlers may hold at most two server-side locks, acquired in a
single fixed order:

1. ``_registry_lock`` — guards handlers that *fold into or render* the
   shared registry/profiler (``/metrics``'s scrape-time exports,
   ``/profile``'s document derivation, ``/healthz``'s
   ``checkpoints_restored`` read of the restore counter family).  With
   three concurrent reader routes, two scrapes folding
   ``profile_stage_*`` or ``obs_events_*`` into the registry at once
   would interleave family mutation; one shared lock serializes them.
   It is *server-side only*: ingestion threads never take it, so the
   detection path still cannot stall.
2. ``_requests_lock`` — a leaf-level counter guard (``requests_served``).
   It is only ever held around a single increment/read and **never**
   while acquiring ``_registry_lock``.

Any new route that mutates shared obs state must take
``_registry_lock`` first and must not call back into a handler that
takes it again.

Usage::

    obs = enabled_instrumentation()
    with ObsServer(obs, port=9100) as server:
        print("scrape", server.url + "/metrics")
        run_detection(obs)
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .exporters import (
    export_event_stats,
    export_profiler,
    render_prometheus,
)
from .rollup import AgentState, FleetRollup
from .slo import SLOEngine
from .tsdb import QueryError

__all__ = [
    "ObsServer",
    "HEALTHZ_AGENTS_LIMIT",
    "MAX_EVENT_TAIL",
    "PROMETHEUS_CONTENT_TYPE",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
DEFAULT_EVENT_TAIL = 100
#: Upper bound on ``/events?n=K``: a tail request beyond any sink's
#: retention is a client error, not an invitation to build a huge list.
MAX_EVENT_TAIL = 100_000
#: Fleet-size cutoff above which ``/healthz`` omits the per-agent map
#: (the bounded ``summary`` block is always present).
HEALTHZ_AGENTS_LIMIT = 100


class ObsServer:
    """Serve one instrumentation bundle over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port (the resolved one is on
    :attr:`port` after :meth:`start`).  :meth:`stop` is graceful and
    idempotent; the object is also a context manager.
    """

    def __init__(
        self, obs: Any, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.obs = obs
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_monotonic = 0.0
        self._started_unix = 0.0
        # ThreadingHTTPServer handles each request on its own thread;
        # a bare += would race (read-modify-write is not atomic).
        self._requests_lock = threading.Lock()
        self._requests_served = 0
        # Serializes registry/profiler folds across handler threads —
        # see "Lock order" in the module docstring.  Acquired before
        # (never while holding) _requests_lock.
        self._registry_lock = threading.Lock()
        # Compiled once: the store caches each compiled query's series
        # selection, so one engine keeps /slo within that bound.
        self._slo_engine = SLOEngine()

    @property
    def requests_served(self) -> int:
        with self._requests_lock:
            return self._requests_served

    def _count_request(self) -> None:
        with self._requests_lock:
            self._requests_served += 1

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        if not self.running:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    def start(self) -> "ObsServer":
        if self.running:
            return self
        handler = _build_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"obs-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is None:
            return
        httpd.shutdown()
        if thread is not None:
            thread.join(timeout=timeout)
        httpd.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Endpoint payloads (also the testable surface, no sockets needed)
    # ------------------------------------------------------------------
    def metrics_text(self) -> Optional[str]:
        """The live scrape body, or None when the registry is disabled."""
        registry = self.obs.registry
        if registry is None:
            return None
        # Scrape-time folds mutate the registry; _registry_lock keeps
        # two concurrent scrapes (or a scrape racing /profile) from
        # interleaving family mutation.  See the module's lock order.
        with self._registry_lock:
            profiler = self.obs.profiler
            if profiler is not None:
                export_profiler(profiler, registry)
            export_event_stats(self.obs.events, registry)
            return render_prometheus(registry)

    def profile_document(self) -> Optional[Dict[str, Any]]:
        """The ``/profile`` JSON document, or None when profiling is
        off.  Document derivation reads every stage handle; the shared
        registry lock keeps it consistent with a racing ``/metrics``
        fold of the same counts."""
        profiler = self.obs.profiler
        if profiler is None:
            return None
        with self._registry_lock:
            return profiler.to_dict()

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` JSON document, with a derived ``status``:

        * ``alarming`` — the alarm of an agent that is not down is
          currently up, or an alert rule is firing;
        * ``degraded`` — events have been dropped, periods ran in
          degraded mode, an alert rule is pending, or an agent is down;
        * ``ok`` — none of the above.
        """
        obs = self.obs
        recorder, events, alerts = obs.recorder, obs.events, obs.alerts
        summaries = recorder.summaries() if recorder is not None else {}
        down = recorder.down if recorder is not None else frozenset()
        agents = {name: each.status_row() for name, each in summaries.items()}
        dropped = events.dropped if events is not None else 0
        firing = alerts.firing() if alerts is not None else []
        pending = alerts.pending() if alerts is not None else []
        # The bounded fleet summary: O(1) in fleet size, present at any
        # scale, each agent counted under the rollup's one status rule
        # (AgentState.status), as /fleet counts it — so a down agent
        # counts only as down: its last period's alarm is not an alarm
        # that is up now.
        summary = {
            "agents_total": len(agents),
            "ok": 0,
            "degraded": 0,
            "alarming": 0,
            "down": 0,
        }
        for name, each in summaries.items():
            state = AgentState.from_summary(name, each, name in down)
            summary[state.status] += 1
        summary["quorum"] = (
            (len(agents) - summary["down"]) / len(agents) if agents else 1.0
        )
        alarms_active = summary["alarming"]
        degraded_periods = sum(
            status.get("degraded_periods", 0) for status in agents.values()
        )
        if alarms_active or firing:
            status = "alarming"
        elif dropped or degraded_periods or pending or summary["down"]:
            status = "degraded"
        else:
            status = "ok"
        # Continuous-operation counters for the soak watchdog:
        # uptime_periods is the longest per-agent observation streak,
        # checkpoints_restored the lifetime restore count.  The counter
        # family read happens under _registry_lock (documented order) —
        # a racing /metrics fold mutates sibling families in the same
        # registry dict.
        uptime_periods = max(
            (row["periods"] for row in agents.values()), default=0
        )
        checkpoints_restored = 0
        registry = obs.registry
        if registry is not None:
            with self._registry_lock:
                family = registry.get("syndog_checkpoints_restored_total")
                if family is not None:
                    checkpoints_restored = int(
                        sum(sample.value for sample in family.samples())
                    )
        document: Dict[str, Any] = {
            "status": status,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "started_unix": self._started_unix,
            "requests_served": self.requests_served,
            "metrics_families": len(registry) if registry is not None else 0,
            "events_emitted": (
                events.events_emitted if events is not None else 0
            ),
            "events_dropped": dropped,
            "alarm_contexts": (
                recorder.contexts_emitted if recorder is not None else 0
            ),
            "periods_observed": sum(
                status["periods"] for status in agents.values()
            ),
            "uptime_periods": uptime_periods,
            "checkpoints_restored": checkpoints_restored,
            "alarms_active": alarms_active,
            "degraded_periods": degraded_periods,
            "alerts_firing": firing,
            "alerts_pending": pending,
            "summary": summary,
        }
        # The full per-agent map only ships below the cutoff — above
        # it, /fleet is the O(K) view and /healthz stays a probe.
        if len(agents) <= HEALTHZ_AGENTS_LIMIT:
            document["agents"] = agents
        else:
            document["agents_omitted"] = len(agents)
        return document

    def fleet_document(self) -> Optional[Dict[str, Any]]:
        """The ``/fleet`` JSON document — the O(K·buckets) rollup of
        the flight recorder's live per-agent state — or None when the
        recorder is disabled (the handler maps it to a 503).

        Building the rollup reads every tape's running summary once
        (O(agents) work per scrape, like ``status()``), but the
        *document* stays O(K): four fixed-bucket digests, three
        ≤K-entry suspect rankings, one counter block.  The fold happens
        under ``_registry_lock`` per the documented order: the recorder
        is shared obs state and a scrape must not interleave with
        another handler's fold.
        """
        recorder = self.obs.recorder
        if recorder is None:
            return None
        with self._registry_lock:
            rollup = FleetRollup.from_summaries(
                recorder.summaries(), down=recorder.down
            )
        return rollup.to_dict()

    def events_tail(
        self, n: int = DEFAULT_EVENT_TAIL, kind: Optional[str] = None
    ) -> Dict[str, Any]:
        """The ``/events`` JSON document: last *n* in-memory events."""
        events = self.obs.events
        emitted = events.events_emitted if events is not None else 0
        sink = self.obs.memory_events()
        if sink is None:
            return {
                "events": [],
                "count": 0,
                "emitted": emitted,
                "dropped": 0,
                "note": "no in-memory event sink attached",
            }
        selected = sink.of_kind(kind) if kind is not None else sink.events
        tail = selected[-max(0, n):] if n else []
        return {
            "events": tail,
            "count": len(tail),
            "emitted": emitted,
            "dropped": sink.dropped,
        }

    def query_result(
        self, expr: str, at: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """The ``/query`` JSON document, or None when the bundle has no
        telemetry history store.  Raises
        :class:`~repro.obs.tsdb.QueryError` on a malformed expression
        (the handler maps it to a 400)."""
        tsdb = self.obs.tsdb
        if tsdb is None:
            return None
        if at is None:
            at = tsdb.last_time()
        result = tsdb.query(expr, at=at)
        return {
            "expr": expr,
            "at": at,
            "result": result,
            "count": len(result),
        }

    def slo_document(
        self, at: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """The ``/slo`` JSON document — the built-in SLO set evaluated
        as multi-window burn rates against the bundle's telemetry
        history store — or None when the store is disabled (the handler
        maps it to a 503).  Like ``/query``, the evaluation only reads
        the TSDB, so no server-side lock is needed."""
        tsdb = self.obs.tsdb
        if tsdb is None:
            return None
        return self._slo_engine.evaluate(tsdb, at=at)

    def alerts_document(self) -> Dict[str, Any]:
        """The ``/alerts`` JSON document (``{"enabled": false}`` when
        no alert manager is armed)."""
        alerts = self.obs.alerts
        if alerts is None:
            return {"enabled": False}
        return alerts.to_dict()


def _build_handler(server: ObsServer):
    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-obs/1.0"
        protocol_version = "HTTP/1.1"

        # The scrape server must never spam the run's stdout.
        def log_message(self, fmt: str, *args: Any) -> None:
            pass

        def _send(
            self, status: int, body: bytes, content_type: str
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
            self._send(status, body, "application/json; charset=utf-8")

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            server._count_request()
            parts = urlsplit(self.path)
            route = parts.path.rstrip("/") or "/"
            try:
                if route == "/metrics":
                    text = server.metrics_text()
                    if text is None:
                        self._send_json(
                            503, {"error": "metrics registry disabled"}
                        )
                        return
                    self._send(
                        200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                    )
                elif route == "/healthz":
                    self._send_json(200, server.health())
                elif route == "/events":
                    query = parse_qs(parts.query)
                    n, kind = _parse_events_query(query)
                    self._send_json(200, server.events_tail(n=n, kind=kind))
                elif route == "/query":
                    query = parse_qs(parts.query)
                    expr, at = _parse_query_params(query)
                    payload = server.query_result(expr, at=at)
                    if payload is None:
                        self._send_json(
                            503, {"error": "telemetry history disabled"}
                        )
                        return
                    self._send_json(200, payload)
                elif route == "/alerts":
                    self._send_json(200, server.alerts_document())
                elif route == "/profile":
                    payload = server.profile_document()
                    if payload is None:
                        self._send_json(
                            503, {"error": "profiler disabled"}
                        )
                        return
                    self._send_json(200, payload)
                elif route == "/fleet":
                    payload = server.fleet_document()
                    if payload is None:
                        self._send_json(
                            503, {"error": "flight recorder disabled"}
                        )
                        return
                    self._send_json(200, payload)
                elif route == "/slo":
                    query = parse_qs(parts.query)
                    payload = server.slo_document(at=_parse_at(query))
                    if payload is None:
                        self._send_json(
                            503, {"error": "telemetry history disabled"}
                        )
                        return
                    self._send_json(200, payload)
                elif route == "/":
                    self._send_json(
                        200,
                        {
                            "service": "repro-syndog telemetry",
                            "endpoints": [
                                "/metrics",
                                "/healthz",
                                "/events",
                                "/query",
                                "/alerts",
                                "/profile",
                                "/fleet",
                                "/slo",
                            ],
                        },
                    )
                else:
                    self._send_json(404, {"error": f"no route {route!r}"})
            except ValueError as error:
                # Includes QueryError: malformed expressions are client
                # errors, not server faults.
                self._send_json(400, {"error": str(error)})
            except BrokenPipeError:  # scraper went away mid-response
                pass

        def do_HEAD(self) -> None:  # noqa: N802 - http.server API
            # Same routing and status codes as GET; _send suppresses
            # the body (probes use HEAD to stay cheap).
            self.do_GET()

    return _Handler


def _parse_events_query(
    query: Dict[str, list],
) -> Tuple[int, Optional[str]]:
    raw_n = query.get("n", [str(DEFAULT_EVENT_TAIL)])[-1]
    try:
        n = int(raw_n)
    except ValueError:
        raise ValueError(f"n must be an integer: {raw_n!r}") from None
    if n < 0:
        raise ValueError(f"n must be >= 0: {n}")
    if n > MAX_EVENT_TAIL:
        # An absurd tail (n=10^18) would otherwise allocate a huge
        # slice in the handler thread; no sink retains that much.
        raise ValueError(f"n must be <= {MAX_EVENT_TAIL}: {n}")
    kind = query.get("kind", [None])[-1]
    return n, kind


def _parse_at(query: Dict[str, list]) -> Optional[float]:
    raw_at = query.get("at", [None])[-1]
    if raw_at is None:
        return None
    try:
        at = float(raw_at)
    except ValueError:
        raise ValueError(f"at must be a number: {raw_at!r}") from None
    if math.isnan(at) or math.isinf(at):
        # float() happily parses "nan"/"inf", but an evaluation instant
        # must be a real point on the logical clock.
        raise ValueError(f"at must be finite: {raw_at!r}")
    return at


def _parse_query_params(
    query: Dict[str, list],
) -> Tuple[str, Optional[float]]:
    expr = query.get("expr", [None])[-1]
    if not expr:
        raise ValueError("missing required parameter: expr")
    return expr, _parse_at(query)
