"""Command-line interface.

The operational surface a network operator (or a curious reader) would
actually touch::

    repro-syndog generate --site auckland --seed 7 --out trace.csv
    repro-syndog attack   --counts trace.csv --rate 5 --start 360 --out mixed.csv
    repro-syndog detect   --counts mixed.csv
    repro-syndog detect   --pcap-out out.pcap --pcap-in in.pcap
    repro-syndog observe  --trace mixed.csv --metrics-out metrics.prom \
                          --events-out events.jsonl --serve 9100 --alerts
    repro-syndog report   events.jsonl --format markdown --profile
    repro-syndog profile  --mode cost-model --flame-out prof.folded
    repro-syndog query    'max_over_time(syndog_cusum[5m])' --events events.jsonl
    repro-syndog alerts   --events events.jsonl --json
    repro-syndog chaos    --seed 42 --schedule lossy-crash --out report.json
    repro-syndog soak     --sim-days 2 --workers 2 --out soak.json
    repro-syndog respond  --seed 7 --rate 200 --out respond.json \
                          --timeline-out timeline.json --events-out ev.jsonl
    repro-syndog respond  --replay ev.jsonl --timeline-out replayed.json
    repro-syndog campaign --networks 1000 --workers 4 --json campaign.json
    repro-syndog sensitivity --site auckland --workers 4
    repro-syndog table    2
    repro-syndog figure   5
    repro-syndog theory   --k-bar 1922

Every subcommand is importable (``from repro.cli import main``) and
returns a process exit code, so the whole surface is unit-testable
without subprocesses.  One driver (:func:`main`) runs every command the
same way: build the command's obs bundle, serve it while the command
runs, print the command's report, write its JSON documents in
canonical form, finalize the bundle (``--metrics-out``), and return the
command's verdict as the exit code.  Usage errors, bad inputs and
unreadable files are one line on stderr and exit 64.

Each numeric option's domain is declared with the option, as its
argparse ``type=`` (``_finite``, ``_non_negative``, ``_positive``,
``_count``, ``_natural``, ``_port``), so a value outside it never
reaches a handler.  Every argparse error, a value outside its domain
included, goes through :class:`_Parser` and prints the same one
``<command>: <message>`` line as a :class:`CommandError`.  Handlers
check only what spans several options (an attack window against the
trace, epochs dividing a day).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, NoReturn, Optional,
    Sequence, Tuple,
)

from .core.parameters import DEFAULT_PARAMETERS, SynDogParameters

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ALARM = 2  # detect: a flooding source was found
EXIT_DEGRADED = 3  # chaos: degradation exceeded the allowed envelope
EXIT_USAGE = 64

_SERVED = "(/metrics /healthz /events /query /alerts /slo)"


def _domain(parse: Callable[[str], Any], inside: Callable[[Any], bool],
            name: str) -> Callable[[str], Any]:
    """An argparse ``type=``: *parse* the text, then keep the value only
    when it lies *inside* the domain, which the usage error calls *name*."""
    def convert(text: str) -> Any:
        try:
            value = parse(text)
            if inside(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {name}, got {text!r}")

    return convert


_finite = _domain(float, math.isfinite, "a finite number")
_non_negative = _domain(float, lambda v: 0 <= v < math.inf,
                        "a finite number >= 0")
_positive = _domain(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_count = _domain(int, lambda v: v >= 1, "an integer >= 1")
_natural = _domain(int, lambda v: v >= 0, "an integer >= 0")
_port = _domain(int, lambda v: 0 <= v <= 65535, "a port in 0-65535")


class _Names:
    """An option's ``choices``: the keys of *table* in *module*, read on
    first use (a value to check, ``--help``, a usage error), so building
    the parser loads none of the models behind the names.  The option
    needs a ``metavar``: without one argparse lists the choices in the
    usage line as soon as the option is added."""

    def __init__(self, module: str, table: str) -> None:
        self._module, self._table = module, table

    def _names(self) -> List[str]:
        module = importlib.import_module(self._module, __package__)
        return sorted(getattr(module, self._table))

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())


#: Flags several subcommands share, declared once: name -> (flags, spec).
_SHARED: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "site": (("--site",), dict(
        choices=_Names(".trace.profiles", "SITE_PROFILES"),
        default="auckland", metavar="SITE",
        help="site profile: %(choices)s (default %(default)s)")),
    "seed": (("--seed",), dict(type=int, default=0,
                               help="root seed (default %(default)s): the "
                                    "same seed gives byte-identical output")),
    "workers": (("--workers",), dict(
        type=_count, default=None, metavar="N",
        help="worker processes sharding the run (default: every core; "
             "1 for profile); the output is byte-identical for every N")),
    "serve": (("--serve",), dict(
        type=_port, metavar="PORT",
        help=f"serve live telemetry {_SERVED} on PORT for the run's "
             f"duration (0 picks a free port)")),
    "hold": (("--hold",), dict(
        type=_non_negative, default=None, metavar="SECONDS",
        help="with --serve: keep the server up this long after the run "
             "so scrapers can query the finished history")),
    "metrics-out": (("--metrics-out",), dict(
        metavar="PATH",
        help="write metrics in Prometheus text-exposition format")),
    "events-out": (("--events-out",), dict(
        metavar="PATH", help="write the structured event stream as JSONL")),
    "json": (("--json",), dict(
        metavar="PATH", help="write the result as canonical JSON "
                             "(sorted keys; byte-identical across runs)")),
    "out": (("--out",), dict(
        metavar="PATH", help="write the report as canonical JSON "
                             "(sorted keys; byte-identical across runs)")),
    "fastpath": (("--fastpath",), dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="pcap input: columnar batched pipeline (default); "
             "--no-fastpath runs the per-packet object pipeline, the "
             "differential oracle -- results are byte-identical")),
    "pcap-in": (("--pcap-in",), dict(
        help="pcap of the inbound interface (with --pcap-out)")),
    "drift": (("--drift",), dict(
        # The detector designs with h = 2a, so 2a must be finite too.
        type=_domain(float, lambda v: 0 < 2 * v < math.inf,
                     "a finite number > 0 (and 2a finite)"),
        default=DEFAULT_PARAMETERS.drift, help="a (default 0.35)")),
    "threshold": (("--threshold",), dict(
        type=_positive, default=DEFAULT_PARAMETERS.threshold,
        help="CUSUM threshold N (default 1.05)")),
    "period": (("--period",), dict(
        type=_positive, default=DEFAULT_PARAMETERS.observation_period,
        help="t0 seconds (default 20; counts input keeps its own)")),
}


def _shared(*names: str, **defaults: Any) -> argparse.ArgumentParser:
    """A parent parser holding the named shared flags; *defaults* gives
    one subcommand its own default for a flag (``seed=42``)."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        flags, spec = _SHARED[name]
        if name in defaults:
            spec = {**spec, "default": defaults[name]}
        parent.add_argument(*flags, **spec)
    return parent


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as :func:`main` reports a
    :class:`CommandError`: one ``<command>: <message>`` line on stderr,
    then exit 64 (``--help`` still exits 0)."""

    def error(self, message: str) -> NoReturn:
        print(f"{self.prog.split()[-1]}: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            # A subcommand owns every argument after its name, so its
            # leftovers are its usage error, reported under its name.
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-syndog",
        description="SYN-dog: sniff SYN flooding sources (ICDCS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    detector = ("pcap-in", "drift", "threshold", "period", "fastpath")

    generate = sub.add_parser(
        "generate", parents=[_shared("site", "seed")],
        help="synthesize background traffic for a site profile",
    )
    generate.add_argument("--duration", type=_positive, default=None,
                          help="seconds (default: the site's Table 1 "
                               "duration)")
    generate.add_argument("--format", choices=("counts", "pcap"),
                          default="counts",
                          help="counts: per-period CSV; pcap: two capture "
                               "files (.out/.in)")
    generate.add_argument("--out", required=True,
                          help="output path (or prefix for pcap)")

    attack = sub.add_parser("attack", help="mix a SYN flood into a count trace")
    attack.add_argument("--counts", required=True, help="background count-trace CSV")
    attack.add_argument("--rate", type=_non_negative, required=True,
                        help="flood SYN/s")
    attack.add_argument("--start", type=_non_negative, default=360.0,
                        help="attack start (s)")
    attack.add_argument("--duration", type=_positive, default=600.0,
                        help="attack duration (s)")
    attack.add_argument("--out", required=True)

    detect = sub.add_parser(
        "detect", parents=[_shared(*detector, "json", "metrics-out", "serve")],
        help="run SYN-dog over a trace",
    )
    source = detect.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", help="count-trace CSV")
    source.add_argument("--pcap-out", help="pcap of the outbound interface")
    detect.add_argument("--quiet", action="store_true",
                        help="suppress the per-period series")
    detect.add_argument("--report", action="store_true",
                        help="on alarm, print the forensic attack report "
                             "(onset, end, rate estimates)")

    observe = sub.add_parser(
        "observe",
        parents=[_shared(*detector, "metrics-out", "events-out", "serve",
                         "hold")],
        help="run detection with the full observability layer enabled: "
             "Prometheus metrics, JSONL events, detection timing",
    )
    obs_source = observe.add_mutually_exclusive_group(required=True)
    obs_source.add_argument("--trace", help="count-trace CSV")
    obs_source.add_argument("--pcap-out", help="pcap of the outbound interface")
    observe.add_argument("--alerts", action="store_true",
                         help="arm the builtin alert rules for live "
                              "per-period evaluation")
    observe.add_argument("--rules", metavar="JSON",
                         help="alert rules file (implies --alerts)")

    query = sub.add_parser(
        "query",
        help="evaluate a PromQL-lite expression over recorded telemetry "
             "(offline events JSONL or a live telemetry server)",
    )
    query.add_argument("expr", metavar="EXPR",
                       help="e.g. 'max_over_time(syndog_cusum[5m])' or "
                            'syndog_x_n{agent="syn-dog"}')
    _add_telemetry_source(query)
    query.add_argument("--at", type=_finite, default=None, metavar="T",
                       help="evaluation time in trace seconds "
                            "(default: newest sample)")
    query.add_argument("--json", action="store_true",
                       help="print the raw result document as JSON")

    alerts = sub.add_parser(
        "alerts", parents=[_shared("threshold")],
        help="evaluate alert rules over recorded telemetry and print "
             "the lifecycle history (exit 2 when any rule fired)",
    )
    _add_telemetry_source(alerts)
    alerts.add_argument("--rules", metavar="JSON",
                        help="alert rules file (default: the builtin "
                             "watch-the-watchers rules)")
    alerts.add_argument("--json", action="store_true",
                        help="print the full alerts document as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="fleet telemetry rollup of detectors that ran: population "
             "counters, quantile digests over detector state and top-K "
             "suspect tables (exit 2 when any agent is alarming)",
    )
    _add_telemetry_source(fleet)
    fleet.add_argument("--json", action="store_true",
                       help="print the rollup document as JSON")

    report = sub.add_parser(
        "report",
        help="forensic report over one or more events JSONL files: "
             "alarm timelines, detection latency, false alarms, "
             "CUSUM traces",
    )
    report.add_argument("events", nargs="+", metavar="EVENTS_JSONL",
                        help="events JSONL file(s) from observe "
                             "--events-out")
    report.add_argument("--format", choices=("text", "markdown", "json"),
                        default="text")
    report.add_argument("--min-alarm-periods", type=_natural, default=2,
                        help="alarm spans clearing in fewer periods "
                             "count as false alarms (default 2)")
    report.add_argument("--profile", action="store_true",
                        help="append the per-stage cost section folded "
                             "from the log's profile events")
    report.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    profile = sub.add_parser(
        "profile",
        parents=[_shared("site", "seed", "workers", "json", "events-out",
                         "fastpath", workers=1)],
        help="profile the packet pipeline per stage over a small "
             "deterministic campaign; export flamegraph/callgrind",
    )
    profile.add_argument("--mode", choices=("cost-model", "timers"),
                         default="cost-model",
                         help="cost-model: deterministic fixed per-op "
                              "costs (byte-identical at any --workers); "
                              "timers: real wall/CPU/alloc measurements")
    profile.add_argument("--networks", type=_count, default=2,
                         help="stub networks driven through the pipeline")
    profile.add_argument("--duration", type=_positive, default=None,
                         help="seconds of synthetic trace per network "
                              "(default 60)")
    profile.add_argument("--sample-every", type=_count, default=64,
                         metavar="K",
                         help="timers mode: time 1 of every K calls on "
                              "per-packet stages (default 64)")
    profile.add_argument("--flame-out", metavar="PATH",
                         help="write folded stacks for flamegraph.pl / "
                              "speedscope / inferno")
    profile.add_argument("--callgrind-out", metavar="PATH",
                         help="write callgrind format for kcachegrind")
    profile.add_argument("--baseline", metavar="JSON",
                         help="per-stage ns/packet baseline "
                              "(BENCH_profile.json); exit 2 when any "
                              "stage regresses past the tolerance, 64 "
                              "when the run made no such stage")
    profile.add_argument("--baseline-tolerance", type=_non_negative,
                         default=1.5, metavar="X",
                         help="allowed ns/packet multiple of the "
                              "baseline (default 1.5)")

    table = sub.add_parser(
        "table", parents=[_shared("workers", "json")],
        help="regenerate a paper table (1, 2 or 3)",
    )
    table.add_argument("number", type=int, choices=(1, 2, 3))
    table.add_argument("--trials", type=_count, default=10)

    figure = sub.add_parser(
        "figure", parents=[_shared("seed")],
        help="regenerate a paper figure (3, 4, 5, 7, 8 or 9)",
    )
    figure.add_argument("number", type=int, choices=(3, 4, 5, 7, 8, 9))

    campaign = sub.add_parser(
        "campaign",
        parents=[_shared("site", "seed", "workers", "json", "metrics-out",
                         "serve")],
        help="simulate a distributed campaign against a fleet of SYN-dogs",
    )
    campaign.add_argument("--aggregate", type=_positive, default=14000.0,
                          help="campaign rate V toward the victim (SYN/s)")
    campaign.add_argument("--networks", type=_count, required=True,
                          help="stub networks A the campaign spreads over")
    campaign.add_argument("--sample", type=_count, default=6,
                          help="networks actually simulated (uniform sample)")

    chaos = sub.add_parser(
        "chaos",
        parents=[_shared("site", "seed", "workers", "out", "metrics-out",
                         seed=42)],
        help="run the fault-injection campaign and assert the "
             "degradation envelope (baseline vs faulted detection)",
    )
    chaos.add_argument("--schedule",
                       choices=_Names(".faults.schedule", "BUILTIN_SCHEDULES"),
                       metavar="NAME",
                       help="built-in fault schedule: %(choices)s (default: "
                            "the campaign's, lossy-crash)")
    chaos.add_argument("--rate", type=_non_negative, default=5.0,
                       help="flood SYN/s mixed into the background")
    chaos.add_argument("--attack-start", type=_non_negative, default=360.0,
                       help="flood onset (s)")
    chaos.add_argument("--attack-duration", type=_positive, default=600.0,
                       help="flood duration (s)")
    chaos.add_argument("--duration", type=_positive, default=1800.0,
                       help="total trace length (s)")
    chaos.add_argument("--max-delay-ratio", type=_non_negative, default=2.0,
                       help="envelope: faulted detection delay must stay "
                            "within this multiple of the baseline")
    chaos.add_argument("--alerts-out", metavar="PATH",
                       help="replay the builtin alert rules over the "
                            "campaign's telemetry history and write the "
                            "alerts document as canonical JSON")
    chaos.add_argument("--max-memory-events", type=_natural, default=100_000,
                       metavar="N",
                       help="bound on the in-memory event sink (small "
                            "bounds exercise drop accounting and the "
                            "events_dropping alert)")

    soak = sub.add_parser(
        "soak",
        parents=[_shared("site", "seed", "workers", "out", "metrics-out",
                         "events-out", "serve", "hold", seed=42)],
        help="long-horizon soak: epochs of detect/checkpoint/restore "
             "with fault bursts and attack windows, judged by SLO "
             "burn rates and the resource ledger",
    )
    soak.add_argument("--sim-days", type=_count, default=2,
                      help="simulated days of continuous operation")
    soak.add_argument("--periods-per-epoch", type=_count, default=288,
                      help="observation periods per epoch; one epoch = "
                           "one checkpoint/restore cycle and one work "
                           "shard (epochs must divide a day evenly)")
    soak.add_argument("--rate", type=_non_negative, default=5.0,
                      help="flood SYN/s mixed into attack epochs")
    soak.add_argument("--tsdb-retention", default=2048, metavar="N",
                      type=_domain(int, lambda v: v >= 8, "an integer >= 8"),
                      help="per-series telemetry retention (at least 8); "
                           "the default reaches compaction equilibrium "
                           "inside the first simulated day, so the ledger "
                           "flatness gate measures steady state, not "
                           "ramp-up")

    respond = sub.add_parser(
        "respond",
        parents=[_shared("seed", "workers", "out", "metrics-out",
                         "events-out", "serve", "hold", seed=7)],
        help="closed-loop detect->respond campaign: unmitigated vs "
             "playbook-mitigated flood, with recovery and collateral "
             "verdicts",
    )
    respond.add_argument("--rate", type=_non_negative, default=200.0,
                         help="flood SYN/s aimed at the victim")
    respond.add_argument("--client-rate", type=_non_negative, default=15.0,
                         help="legitimate connection attempts per second")
    respond.add_argument("--duration", type=_positive, default=300.0,
                         help="total scenario length (s)")
    respond.add_argument("--attack-start", type=_non_negative, default=60.0,
                         help="flood onset (s)")
    respond.add_argument("--attack-duration", type=_positive, default=120.0,
                         help="flood duration (s)")
    respond.add_argument("--period", type=_positive, default=5.0,
                         help="detector observation period t0 (s)")
    respond.add_argument("--backlog", type=_count, default=256,
                         help="victim listen-queue capacity")
    respond.add_argument("--playbook", metavar="PATH",
                         help="playbook file (JSON or YAML-lite; default: "
                              "the built-in block-and-shield playbook)")
    respond.add_argument("--flaky", type=_natural, default=0, metavar="N",
                         help="inject N deterministic actuator failures "
                              "per action kind (exercises retry/backoff)")
    respond.add_argument("--recovery-factor", type=_non_negative, default=2.0,
                         help="pass bar: mitigated handshake completion "
                              "over the attack window must be at least "
                              "this multiple of the unmitigated arm's")
    respond.add_argument("--alert-cut", type=_non_negative, default=50.0,
                         help="syndog_delta threshold for the syn_flood "
                              "alert rule driving the engine")
    respond.add_argument("--timeline-out", metavar="PATH",
                         help="write the mitigation timeline document as "
                              "canonical JSON (byte-identical to an "
                              "offline --replay of the events JSONL)")
    respond.add_argument("--replay", metavar="EVENTS",
                         help="offline mode: rebuild the mitigation "
                              "timeline document from an events JSONL "
                              "written by a previous run (no simulation)")

    sensitivity = sub.add_parser(
        "sensitivity", parents=[_shared("site", "seed", "workers", "json")],
        help="sweep the (a, N) tuning grid: false-alarm rate vs "
             "detection delay per cell, with an operator recommendation",
    )
    sensitivity.add_argument("--drifts", type=_positive, nargs="+",
                             default=[0.05, 0.1, 0.2, 0.35, 0.5],
                             help="drift (a) values to sweep")
    sensitivity.add_argument("--thresholds", type=_positive, nargs="+",
                             default=[0.3, 0.6, 1.05, 2.0],
                             help="threshold (N) values to sweep")
    sensitivity.add_argument("--rate", type=_non_negative, default=5.0,
                             help="reference flood SYN/s for the "
                                  "detection-delay column")
    sensitivity.add_argument("--traces", type=_count, default=5,
                             help="normal traces and attack trials per cell")
    sensitivity.add_argument("--max-false-alarm-rate", type=_non_negative,
                             default=0.0,
                             help="false-alarm budget for the "
                                  "recommendation (onsets per period)")

    theory = sub.add_parser(
        "theory", help="print the analytic bounds for a site size"
    )
    theory.add_argument("--k-bar", type=_positive, required=True,
                        help="mean SYN/ACKs per observation period at the "
                             "deployment site")
    theory.add_argument("--aggregate", type=_positive, default=14000.0,
                        help="campaign rate V for the coverage bound (SYN/s)")

    return parser


def _add_telemetry_source(parser: argparse.ArgumentParser) -> None:
    """The required ``--events JSONL | --url URL`` choice of the offline
    telemetry commands."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--events", metavar="JSONL",
                       help="events JSONL from observe --events-out "
                            "(deterministic offline rebuild)")
    group.add_argument("--url", metavar="URL",
                       help="base URL of a live telemetry server")


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class CommandError(Exception):
    """A diagnostic :func:`main` prints as one ``<command>: <message>``
    line on stderr, in place of a traceback, and the exit code to
    return (64 unless the broken input *is* the finding)."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


class Outcome(NamedTuple):
    """What a command's run produced, for the driver to deliver."""

    code: int = EXIT_OK
    text: str = ""
    #: ``(label, path, document, note)``: written as canonical JSON when
    #: *path* is set.
    documents: Sequence[Tuple[str, Optional[str], Any, str]] = ()


def _instrumentation(**kwargs: Any) -> Any:
    from .obs import enabled_instrumentation

    return enabled_instrumentation(**kwargs)


def _exported_obs(args: argparse.Namespace) -> Any:
    """A bundle only when something exports it: ``--metrics-out``, or
    ``--serve`` (which keeps the in-memory sink so /events answers)."""
    if args.metrics_out or args.serve is not None:
        return _instrumentation(memory_events=args.serve is not None)
    return None


@contextmanager
def _serving(
    obs, port: Optional[int], hold: Optional[float] = None
) -> Iterator[None]:
    """Run the block with the telemetry server up (no-op without a
    port); the server stops — gracefully — when the block exits.
    *hold* keeps it up that many seconds after the block so scrapers
    can still query the finished run's history."""
    if port is None or obs is None:
        yield
        return
    from .obs.server import ObsServer

    server = ObsServer(obs, port=port)
    server.start()
    print(f"telemetry         : serving {server.url}  {_SERVED}")
    try:
        yield
        if hold:
            import time

            print(f"telemetry         : holding for {hold:g}s")
            time.sleep(hold)
    finally:
        server.stop()


def _deliver(args: argparse.Namespace, obs: Any, outcome: Outcome) -> None:
    """Print the report, write the documents, finalize the bundle and
    say where everything went."""
    if outcome.text:
        print(outcome.text)
    for label, path, document, note in outcome.documents:
        if path:
            from .experiments.export import save_json

            save_json(document, path)
            print(f"{label:<17}: JSON -> {path}{note}")
    if obs is None:
        return
    metrics_out = getattr(args, "metrics_out", None)
    samples = obs.finalize(metrics_out)
    if metrics_out:
        print(f"metrics          : {samples} metric samples -> {metrics_out}")
    if getattr(args, "events_out", None):
        print(f"events           : JSONL -> {args.events_out}")
    events, recorder = obs.events, obs.recorder
    if events is not None and events.dropped:
        print(f"events DROPPED   : {events.dropped} "
              f"(bounded memory sink overflowed)")
    if recorder is not None and recorder.contexts_emitted:
        print(f"alarm contexts   : {recorder.contexts_emitted} "
              f"(flight recorder)")
    if obs.alerts is not None:
        doc = obs.alerts.to_dict()
        print(f"alerts           : {len(doc['rules'])} rules, "
              f"{doc['evaluations']} evaluations, "
              f"{len(doc['transitions'])} transitions")
        fired = _fired(doc)
        if fired:
            print(f"alerts fired     : {', '.join(fired)}")


def _fired(alerts_doc: dict) -> List[str]:
    """The rules an alerts document ever moved to firing, sorted."""
    return sorted({
        transition["rule"]
        for transition in alerts_doc.get("transitions", ())
        if transition["to"] == "firing"
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Set before anything imports numpy.  Only the pcap fastpath uses
    # numpy, for column work (bincount, searchsorted, cumsum) that never
    # calls BLAS, yet OpenBLAS starts a thread per core at import, about
    # half of numpy's import time.  A value the caller set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # --help exits 0; a usage error is 64
        return EXIT_OK if exit_.code in (0, None) else EXIT_USAGE
    run, build_obs = _COMMANDS[args.command]
    try:
        obs = build_obs(args) if build_obs is not None else None
        with _serving(obs, getattr(args, "serve", None),
                      getattr(args, "hold", None)):
            outcome = run(args, obs)
            # Delivered before any --hold: the report prints as soon as
            # the run ends, and held scrapers see the finalized bundle.
            _deliver(args, obs, outcome)
        return outcome.code
    except CommandError as exc:
        message, code = str(exc), exc.code
    except OSError as exc:  # a missing or unreadable input file
        message, code = str(exc), EXIT_USAGE
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


# ----------------------------------------------------------------------
# Subcommands: each runs and returns its Outcome
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace, obs: Any) -> Outcome:
    from .trace.io import save_count_trace
    from .trace.profiles import get_profile
    from .trace.synthetic import generate_count_trace, generate_packet_trace

    profile = get_profile(args.site)
    generate = (generate_count_trace if args.format == "counts"
                else generate_packet_trace)
    try:
        trace = generate(profile, seed=args.seed, duration=args.duration)
    except ValueError as exc:  # a duration under one of the site's periods
        raise CommandError(str(exc)) from None
    if args.format == "counts":
        save_count_trace(trace, args.out)
        return Outcome(text=f"wrote {trace.num_periods} periods "
                            f"({trace.duration:.0f}s of {profile.name}) "
                            f"to {args.out}")
    from .pcap.writer import write_pcap

    out_path = f"{args.out}.out.pcap"
    in_path = f"{args.out}.in.pcap"
    write_pcap(out_path, trace.outbound)
    write_pcap(in_path, trace.inbound)
    return Outcome(text=f"wrote {len(trace.outbound)} outbound packets to "
                        f"{out_path}\nwrote {len(trace.inbound)} inbound "
                        f"packets to {in_path}")


def _load_counts(path: str) -> Any:
    """The count trace at *path*; a malformed one is a usage error."""
    from .trace.io import load_count_trace

    try:
        return load_count_trace(path)
    except ValueError as exc:  # a malformed line or header
        raise CommandError(f"bad count trace {path}: {exc}") from None


def _cmd_attack(args: argparse.Namespace, obs: Any) -> Outcome:
    from .attack.flooder import FloodSource
    from .trace.io import save_count_trace
    from .trace.mixer import AttackWindow, mix_flood_into_counts

    background = _load_counts(args.counts)
    if args.start >= background.duration:
        raise CommandError(f"--start {args.start:g}s is past the trace's "
                           f"span [0, {background.duration:g})s")
    mixed = mix_flood_into_counts(
        background,
        FloodSource(pattern=args.rate),
        AttackWindow(args.start, args.duration),
    )
    save_count_trace(mixed, args.out)
    extra = sum(mixed.syn_counts) - sum(background.syn_counts)
    return Outcome(text=f"mixed {extra} flood SYNs ({args.rate}/s for "
                        f"{args.duration:.0f}s from t={args.start:.0f}s) "
                        f"into {args.out}")


def _detection(args: argparse.Namespace, obs: Any, counts_path: Optional[str]):
    """detect/observe: run SynDog over the counts CSV or the pcap pair;
    ``(result, dog, parameters, seconds)``, *seconds* being the
    detection pass's wall clock."""
    import time

    period = args.period
    trace = None
    if counts_path:
        trace = _load_counts(counts_path)
        period = trace.period
    elif not args.pcap_in:
        raise CommandError("--pcap-out requires --pcap-in")
    parameters = SynDogParameters(
        observation_period=period,
        drift=args.drift,
        attack_increase=2.0 * args.drift,
        threshold=args.threshold,
    )
    if trace is None:
        from .experiments.streaming import detect_from_pcaps
        from .pcap.format import PcapFormatError

        start = time.perf_counter()
        try:
            result, dog = detect_from_pcaps(
                args.pcap_out, args.pcap_in, parameters=parameters,
                obs=obs, fastpath=args.fastpath,
            )
        except PcapFormatError as exc:
            raise CommandError(str(exc)) from None
        return result, dog, parameters, time.perf_counter() - start
    if args.command == "detect":
        from .trace.validation import validate_count_trace

        for finding in validate_count_trace(trace):
            print(f"[{finding.severity.value}] {finding.code}: "
                  f"{finding.message}", file=sys.stderr)
    from .core.syndog import SynDog

    dog = SynDog(parameters=parameters, obs=obs)
    start = time.perf_counter()
    result = dog.observe_counts(trace.counts)
    return result, dog, parameters, time.perf_counter() - start


def _verdict(result, dog, parameters, lines: List[str]) -> int:
    """Append the shared detection summary and verdict; the exit code."""
    lines += [
        f"periods observed : {len(result.records)}",
        f"K-bar estimate   : {dog.k_bar:.1f} SYN/ACKs per period",
        f"detection floor  : {dog.min_detectable_rate():.2f} SYN/s (Eq. 8)",
        f"max statistic    : {result.max_statistic:.4f} "
        f"(threshold N = {parameters.threshold})",
    ]
    if result.alarmed:
        lines.append(f"ALARM            : flooding source detected at "
                     f"t = {result.first_alarm_time:.0f}s "
                     f"(period {result.first_alarm_period})")
        return EXIT_ALARM
    lines.append("verdict          : no flooding source detected")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace, obs: Any) -> Outcome:
    result, dog, parameters, _ = _detection(args, obs, args.counts)
    lines: List[str] = []
    if not args.quiet:
        from .experiments.report import render_series

        times = [record.end_time for record in result.records]
        lines.append(render_series("y_n", times, list(result.statistics)))
    code = _verdict(result, dog, parameters, lines)
    if result.alarmed and args.report:
        from .experiments.forensics import characterize_attack

        report = characterize_attack(result, parameters=parameters)
        lines += [
            "--- forensic report ---",
            f"estimated onset  : t = {report.estimated_onset_time:.0f}s",
            f"estimated end    : t = {report.estimated_end_time:.0f}s "
            f"(duration {report.estimated_duration:.0f}s)",
            f"estimated rate   : {report.estimated_rate:.2f} SYN/s "
            f"seen by this router",
            f"baseline X       : {report.baseline_x:.4f}; "
            f"attacked X: {report.attack_x:.4f}",
        ]
    documents = []
    if args.json:
        from .experiments.export import detection_result_to_dict

        documents.append(("detection", args.json,
                          detection_result_to_dict(result), ""))
    return Outcome(code, "\n".join(lines), documents)


def _observe_obs(args: argparse.Namespace) -> Any:
    alert_rules = None
    if args.alerts or args.rules:
        from .obs.alerts import builtin_rules, rules_from_file

        alert_rules = (
            rules_from_file(args.rules) if args.rules
            else builtin_rules(threshold=args.threshold)
        )
    return _instrumentation(events_path=args.events_out, alert_rules=alert_rules)


def _cmd_observe(args: argparse.Namespace, obs: Any) -> Outcome:
    """``detect`` with the full observability layer switched on."""
    result, dog, parameters, seconds = _detection(args, obs, args.trace)
    lines = [
        f"events emitted   : {obs.events.events_emitted}",
        f"detection pass   : {seconds * 1e3:.2f} ms wall clock",
    ]
    code = _verdict(result, dog, parameters, lines)
    return Outcome(code, "\n".join(lines))


def _fetch_json(base: str, path: str, params: Optional[dict] = None) -> dict:
    """GET *path* from a live telemetry server and decode the JSON body."""
    import json
    from urllib.parse import urlencode
    from urllib.request import urlopen

    base = base.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base
    url = base + path + ("?" + urlencode(params) if params else "")
    with urlopen(url) as response:
        body = response.read().decode("utf-8")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise CommandError(f"bad JSON from {url}: {exc}") from None


def _json_text(document: Any) -> str:
    import json

    return json.dumps(document, indent=2, sort_keys=True)


def _load_events_strict(path) -> list:
    """Load an events JSONL for offline forensics, refusing to limp
    along on a log that cannot support any: a truncated/corrupt file
    (e.g. the writer died mid-line) or an empty one exits 2, because
    for a forensics command the broken log *is* the finding, and a
    clean "0 events, all quiet" report would hide it."""
    from .obs.events import read_jsonl

    try:
        events = read_jsonl(path)
    except ValueError as exc:  # includes json.JSONDecodeError
        raise CommandError(f"truncated or corrupt events file {path}: {exc}",
                           EXIT_ALARM) from None
    if not events:
        raise CommandError(f"empty events file: {path}", EXIT_ALARM)
    return events


def _cmd_query(args: argparse.Namespace, obs: Any) -> Outcome:
    """Evaluate one PromQL-lite expression over recorded telemetry."""
    from .obs.tsdb import QueryError, tsdb_from_events

    if args.url:
        params = {"expr": args.expr}
        if args.at is not None:
            params["at"] = args.at
        doc = _fetch_json(args.url, "/query", params)
    else:
        tsdb = tsdb_from_events(_load_events_strict(args.events))
        try:
            result = tsdb.query(args.expr, at=args.at)
        except QueryError as exc:
            raise CommandError(str(exc)) from None
        at = args.at if args.at is not None else tsdb.last_time()
        doc = {"expr": args.expr, "at": at, "result": result,
               "count": len(result)}
    if args.json:
        return Outcome(text=_json_text(doc))
    at = doc.get("at")
    lines = [
        f"expr             : {doc.get('expr', args.expr)}",
        f"evaluated at     : {'-' if at is None else f't = {at:g}s'}",
    ]
    rows = doc.get("result") or []
    if not rows:
        lines.append("result           : empty vector")
    else:
        lines.append(f"result           : {len(rows)} series")
    for entry in rows:
        labels = entry.get("labels") or {}
        rendered = "{" + ", ".join(
            f'{key}="{value}"' for key, value in sorted(labels.items())
        ) + "}"
        lines.append(f"  {rendered} {entry['value']:g}")
    return Outcome(text="\n".join(lines))


def _render_alerts_text(doc: dict) -> str:
    """Human view of an alerts document (live or replayed)."""
    if not doc.get("enabled", False):
        return "alerting         : disabled (no alert manager)"
    lines = [
        f"rules            : {len(doc.get('rules', []))}",
        f"evaluations      : {doc.get('evaluations', 0)}"
        + (" (closed)" if doc.get("closed") else ""),
    ]
    states = doc.get("states", {})
    for rule in doc.get("rules", []):
        state = states.get(rule["name"], {})
        lines.append(
            f"  {rule['name']:<24} [{rule.get('severity', '?'):>4}] "
            f"state={state.get('state', '?')} "
            f"fired={state.get('fired_count', 0)} "
            f"resolved={state.get('resolved_count', 0)}"
        )
    transitions = doc.get("transitions", [])
    lines.append(f"transitions      : {len(transitions)}")
    for transition in transitions:
        value = transition.get("value")
        lines.append(
            f"  t={transition['t']:>7g}s {transition['rule']:<24} "
            f"-> {transition['to']}"
            + ("" if value is None else f" (value {value:g})")
        )
    return "\n".join(lines)


def _cmd_alerts(args: argparse.Namespace, obs: Any) -> Outcome:
    """Alert-rule evaluation over recorded telemetry: live state from a
    server, or a deterministic replay over an events JSONL."""
    if args.url:
        doc = _fetch_json(args.url, "/alerts")
    else:
        from .obs.alerts import builtin_rules, replay_rules, rules_from_file
        from .obs.events import read_jsonl
        from .obs.tsdb import tsdb_from_events

        events = read_jsonl(args.events)
        try:
            rules = (
                rules_from_file(args.rules) if args.rules
                else builtin_rules(threshold=args.threshold)
            )
        except (ValueError, OSError) as exc:
            raise CommandError(f"bad rules file: {exc}") from None
        doc = replay_rules(rules, tsdb_from_events(events)).to_dict()
    fired = doc.get("firing") or _fired(doc)
    return Outcome(EXIT_ALARM if fired else EXIT_OK,
                   _json_text(doc) if args.json else _render_alerts_text(doc))


def _render_fleet_text(doc: dict) -> str:
    """Human view of a fleet rollup document."""
    agents = doc.get("agents", {})
    lines = [
        f"fleet            : {agents.get('total', 0)} agents "
        f"(ok {agents.get('ok', 0)}, degraded {agents.get('degraded', 0)}, "
        f"alarming {agents.get('alarming', 0)}, down {agents.get('down', 0)})",
        f"quorum           : {agents.get('quorum', 1.0):.4f}",
        f"alarm fraction   : {agents.get('alarm_fraction', 0.0):.4f}",
    ]
    watermark = doc.get("watermark")
    lines.append(
        "watermark        : "
        + ("-" if watermark is None else f"t = {watermark:g}s")
    )

    def _cell(value):
        return "-" if value is None else f"{value:.4g}"

    digests = doc.get("digests", {})
    if digests:
        lines.append(f"{'digest':<18} {'p50':>10} {'p90':>10} {'p99':>10} "
                     f"{'max':>10}")
        for metric in sorted(digests):
            digest = digests[metric]
            quantiles = digest.get("quantiles", {})
            lines.append(
                f"  {metric:<16} {_cell(quantiles.get('p50')):>10} "
                f"{_cell(quantiles.get('p90')):>10} "
                f"{_cell(quantiles.get('p99')):>10} "
                f"{_cell(digest.get('max')):>10}"
            )
    titles = {
        "alarms": "most alarming (alarm count)",
        "cusum": "highest CUSUM",
        "degraded": "most degraded (periods)",
    }
    for ranking in sorted(doc.get("top", {})):
        entries = doc["top"][ranking].get("entries", [])
        if not entries:
            continue
        lines.append(f"top suspects     : {titles.get(ranking, ranking)}")
        for entry in entries:
            error = entry.get("error", 0.0)
            lines.append(
                f"  {entry['agent']:<24} {entry['weight']:>10g}"
                + ("" if not error else f"  (±{error:g})")
            )
    return "\n".join(lines)


def _cmd_fleet(args: argparse.Namespace, obs: Any) -> Outcome:
    """Fleet summary: a live /fleet scrape or an offline events rebuild."""
    if args.url:
        doc = _fetch_json(args.url, "/fleet")
    else:
        from .obs.rollup import rollup_from_events

        doc = rollup_from_events(_load_events_strict(args.events)).to_dict()
    alarming = (doc.get("agents") or {}).get("alarming", 0)
    return Outcome(EXIT_ALARM if alarming else EXIT_OK,
                   _json_text(doc) if args.json else _render_fleet_text(doc))


def _cmd_table(args: argparse.Namespace, obs: Any) -> Outcome:
    if args.number == 1:
        from .experiments.tables import table1

        return Outcome(text=table1())
    from .experiments.export import table_rows_to_dict
    from .experiments.tables import table2, table3

    rows, rendered = (table2 if args.number == 2 else table3)(
        num_trials=args.trials, workers=args.workers
    )
    document = table_rows_to_dict(rows, title=f"Table {args.number}")
    return Outcome(text=rendered,
                   documents=[("rows", args.json, document, "")])


def _cmd_figure(args: argparse.Namespace, obs: Any) -> Outcome:
    from .experiments import figures

    if args.number in (3, 4):
        maker = figures.figure3 if args.number == 3 else figures.figure4
        panels = maker(seed=args.seed)
    elif args.number == 9:
        panels = [figures.figure9(seed=args.seed)[0]]
    else:
        maker = {5: figures.figure5, 7: figures.figure7,
                 8: figures.figure8}[args.number]
        panels = [panel for panel, _result in maker(seed=args.seed)]
    return Outcome(text="\n".join(panel.render() for panel in panels))


def _cmd_chaos(args: argparse.Namespace, obs: Any) -> Outcome:
    """Fault-injection campaign: baseline vs faulted detection, with a
    hard exit-code verdict on the degradation envelope."""
    from .experiments.chaos import (
        chaos_alerts_document,
        render_chaos_report,
        run_chaos_campaign,
    )
    from .faults.schedule import get_schedule

    report = run_chaos_campaign(
        site=args.site,
        seed=args.seed,
        schedule=get_schedule(args.schedule) if args.schedule else None,
        rate=args.rate,
        attack_start=args.attack_start,
        attack_duration=args.attack_duration,
        duration=args.duration,
        max_delay_ratio=args.max_delay_ratio,
        obs=obs,
        workers=args.workers,
    )
    documents = [("report", args.out, report.to_dict(), "")]
    if args.alerts_out:
        # Replayed over the merged telemetry history (before finalize),
        # so it is byte-identical for every --workers N.
        alerts = chaos_alerts_document(obs)
        fired = _fired(alerts)
        documents.append(("alerts", args.alerts_out, alerts,
                          f"  (fired: {', '.join(fired)})" if fired else ""))
    return Outcome(EXIT_OK if report.within_envelope else EXIT_DEGRADED,
                   render_chaos_report(report), documents)


def _cmd_soak(args: argparse.Namespace, obs: Any) -> Outcome:
    """Long-horizon soak campaign: simulated days of synthesize ->
    detect -> checkpoint -> restore -> continue, with periodic fault
    bursts and attack windows, judged by multi-window SLO burn rates
    and the resource ledger's memory-flatness verdict."""
    from .experiments.soak import (
        render_soak_report,
        run_soak_campaign,
        soak_epochs,
    )

    try:
        soak_epochs(args.sim_days, args.periods_per_epoch, args.rate,
                    DEFAULT_PARAMETERS.observation_period)
    except ValueError as exc:  # epochs that do not divide a day
        raise CommandError(str(exc)) from None
    report = run_soak_campaign(
        site=args.site,
        seed=args.seed,
        sim_days=args.sim_days,
        periods_per_epoch=args.periods_per_epoch,
        rate=args.rate,
        obs=obs,
        workers=args.workers,
    )
    return Outcome(EXIT_OK if report.healthy else EXIT_DEGRADED,
                   render_soak_report(report),
                   [("report", args.out, report.to_dict(), "")])


def _respond_obs(args: argparse.Namespace) -> Any:
    if args.replay:
        return None
    return _instrumentation(events_path=args.events_out,
                            memory_events=args.serve is not None)


def _cmd_respond(args: argparse.Namespace, obs: Any) -> Outcome:
    """Closed-loop response campaign: run the unmitigated and the
    playbook-mitigated arms of the same flood, print the recovery
    verdict, and persist the deterministic report/timeline artifacts.
    With ``--replay`` no simulation runs: the timeline document is
    rebuilt purely from a previous run's events JSONL."""
    from .defense.response import Playbook, timeline_from_events
    from .experiments.respond import (
        render_respond_report,
        run_respond_campaign,
        timeline_document,
    )

    if args.replay:
        from .obs.events import read_jsonl

        document = timeline_document(timeline_from_events(read_jsonl(args.replay)))
        if not args.timeline_out:
            return Outcome(text=_json_text(document))
        return Outcome(documents=[(
            "timeline", args.timeline_out, document,
            f"  (replayed {document['count']} entries from {args.replay})",
        )])
    playbook = None
    if args.playbook:
        try:
            playbook = Playbook.from_file(args.playbook)
        except (OSError, ValueError) as exc:
            raise CommandError(f"bad playbook: {exc}") from None
    report = run_respond_campaign(
        seed=args.seed,
        rate=args.rate,
        client_rate=args.client_rate,
        duration=args.duration,
        attack_start=args.attack_start,
        attack_duration=args.attack_duration,
        period=args.period,
        backlog_capacity=args.backlog,
        playbook=playbook,
        alert_cut=args.alert_cut,
        actuator_failures=args.flaky,
        recovery_factor=args.recovery_factor,
        obs=obs,
        workers=args.workers,
    )
    timeline = timeline_document(report.mitigated["timeline"])
    return Outcome(EXIT_OK if report.passed else EXIT_DEGRADED,
                   render_respond_report(report), [
                       ("report", args.out, report.to_dict(), ""),
                       ("timeline", args.timeline_out, timeline,
                        f"  ({timeline['count']} entries)"),
                   ])


def _cmd_theory(args: argparse.Namespace, obs: Any) -> Outcome:
    from .experiments.report import render_table

    parameters = DEFAULT_PARAMETERS
    k_bar = args.k_bar
    floor = parameters.min_detectable_rate(k_bar)
    try:
        hidden = parameters.max_hidden_sources(args.aggregate, k_bar)
    except ValueError as exc:  # f_min underflows at a tiny --k-bar
        raise CommandError(str(exc)) from None
    rows = [
        ["K-bar (SYN/ACKs per period)", k_bar],
        ["f_min, Eq. 8 (SYN/s)", round(floor, 2)],
        ["design detection time (periods)", parameters.design_detection_periods],
        ["design detection time (seconds)", parameters.design_detection_seconds],
        [f"max hidden stub networks at V={args.aggregate:.0f}/s", hidden],
    ]
    for rate_multiple in (1.2, 1.5, 2.0, 3.0):
        rate = floor * rate_multiple
        rows.append([
            f"expected delay at {rate:.1f} SYN/s (periods)",
            round(parameters.detection_periods_for_rate(rate, k_bar), 2),
        ])
    return Outcome(text=render_table(
        ["quantity", "value"], rows,
        title="SYN-dog analytic bounds (paper defaults)",
    ))


def _cmd_campaign(args: argparse.Namespace, obs: Any) -> Outcome:
    from .attack.ddos import DDoSCampaign
    from .experiments.campaign import simulate_campaign
    from .experiments.export import campaign_result_to_dict
    from .packet.addresses import IPv4Address
    from .trace.profiles import get_profile

    profile = get_profile(args.site)
    campaign = DDoSCampaign.evenly_distributed(
        IPv4Address.parse("198.51.100.80"), args.aggregate, args.networks
    )
    result = simulate_campaign(
        campaign, profile, base_seed=args.seed, max_networks=args.sample,
        obs=obs, workers=args.workers,
    )
    floor = DEFAULT_PARAMETERS.min_detectable_rate(
        profile.k_bar_target or profile.expected_k_bar()
    )
    lines = [
        f"campaign        : {args.aggregate:.0f} SYN/s over "
        f"{args.networks} {profile.name}-scale stub networks",
        f"per-network rate: f_i = {campaign.per_network_rate(0):.2f} SYN/s "
        f"(local Eq. 8 floor ~ {floor:.2f})",
        f"sampled networks: {result.num_networks}",
        f"dogs barking    : {result.detection_fraction:.0%}",
    ]
    if result.first_alarm_delay is not None:
        lines += [
            f"first alarm     : {result.first_alarm_delay:.0f} periods "
            f"after campaign start",
            f"flood attributed: {result.attributable_fraction:.0%} "
            f"of the sampled volume",
        ]
        code = EXIT_ALARM
    else:
        lines.append("verdict         : the campaign hides below every "
                     "sampled floor")
        code = EXIT_OK
    return Outcome(code, "\n".join(lines), [
        ("campaign", args.json, campaign_result_to_dict(result), ""),
    ])


def _cmd_sensitivity(args: argparse.Namespace, obs: Any) -> Outcome:
    """The Section 4.2.3 tuning sweep as an operator command: measure
    every (a, N) cell, print the grid, and recommend the most sensitive
    setting inside the false-alarm budget."""
    from .experiments.export import sensitivity_cells_to_dict
    from .experiments.report import render_table
    from .experiments.sensitivity import recommend_parameters, sweep_parameters
    from .trace.profiles import get_profile

    profile = get_profile(args.site)
    cells = sweep_parameters(
        profile,
        drifts=args.drifts,
        thresholds=args.thresholds,
        flood_rate=args.rate,
        num_normal_traces=args.traces,
        num_attack_trials=args.traces,
        base_seed=args.seed,
        workers=args.workers,
    )
    rows = [
        [
            cell.drift,
            cell.threshold,
            f"{cell.false_alarm_rate:.4f}",
            f"{cell.detection_probability:.0%}",
            ("-" if cell.mean_delay_periods is None
             else f"{cell.mean_delay_periods:.1f}"),
            f"{cell.f_min:.2f}",
        ]
        for cell in cells
    ]
    pick = recommend_parameters(
        cells, max_false_alarm_rate=args.max_false_alarm_rate
    )
    text = render_table(
        ["a", "N", "FA/period", "P(detect)", "delay", "f_min"],
        rows,
        title=f"sensitivity grid ({profile.name}, {args.rate:.1f} SYN/s)",
    ) + ("\nrecommendation  : no cell fits the false-alarm budget"
         if pick is None else
         f"\nrecommendation  : a={pick.drift} N={pick.threshold} "
         f"(floor {pick.f_min:.2f} SYN/s)")
    return Outcome(text=text, documents=[(
        "sensitivity", args.json,
        sensitivity_cells_to_dict(cells, site=profile.name), "",
    )])


def _cmd_report(args: argparse.Namespace, obs: Any) -> Outcome:
    """Forensics over events JSONL: what happened, from the log alone."""
    from .obs.analyze import analyze_files, render_report

    for path in args.events:
        # Validate before analyzing: a truncated or empty log must be
        # a loud exit-2 diagnostic, not a quiet "nothing happened".
        _load_events_strict(path)
    report = analyze_files(
        args.events, min_alarm_periods=args.min_alarm_periods
    )
    rendered = render_report(report, fmt=args.format, profile=args.profile)
    code = EXIT_ALARM if report.detection_count else EXIT_OK
    if not args.out:
        return Outcome(code, rendered)
    from pathlib import Path

    Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    return Outcome(code, f"wrote {args.format} report to {args.out}")


def _load_profile_baseline(path: str) -> dict:
    """Read a per-stage ns/packet baseline: either a full
    BENCH_profile.json document (``{"stages": [...]}``) or a bare
    ``{stage: ns_per_packet}`` mapping."""
    import json
    from pathlib import Path

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, dict) and "stages" in data:
            return {
                row["stage"]: float(row["ns_per_packet"])
                for row in data["stages"]
            }
        return {stage: float(value) for stage, value in data.items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CommandError(f"bad baseline file: {exc}") from None


def _profile_obs(args: argparse.Namespace) -> Any:
    return _instrumentation(profiler=args.mode,
                            profiler_sample_every=args.sample_every,
                            events_path=args.events_out)


def _cmd_profile(args: argparse.Namespace, obs: Any) -> Outcome:
    """Per-stage cost attribution over the canonical pipeline workload."""
    from .experiments.profiling import (
        DEFAULT_PROFILE_DURATION,
        run_profile_campaign,
    )
    from .obs.profiler import write_callgrind, write_folded
    from .trace.profiles import get_profile

    baseline = _load_profile_baseline(args.baseline) if args.baseline else {}
    site = get_profile(args.site)
    outcomes = run_profile_campaign(
        site,
        networks=args.networks,
        base_seed=args.seed,
        duration=(args.duration if args.duration is not None
                  else DEFAULT_PROFILE_DURATION),
        obs=obs,
        workers=args.workers,
        fastpath=args.fastpath,
    )
    document = obs.profiler.to_dict()
    total_packets = sum(outcome["packets"] for outcome in outcomes)
    lines = [
        f"profiled         : {len(outcomes)} networks, "
        f"{total_packets} packets ({site.name}, mode {args.mode})",
        f"{'stage':<16} {'calls':>9} {'packets':>9} "
        f"{'ns/call':>12} {'ns/packet':>12} {'total ms':>10}",
    ]
    for row in document["stages"]:
        lines.append(
            f"{row['stage']:<16} {row['calls']:>9} {row['packets']:>9} "
            f"{row['ns_per_call']:>12.1f} {row['ns_per_packet']:>12.1f} "
            f"{row['ns_total'] / 1e6:>10.3f}"
        )
    if args.flame_out:
        stacks = write_folded(document, args.flame_out)
        lines.append(f"flamegraph       : {stacks} folded stacks -> "
                     f"{args.flame_out}")
    if args.callgrind_out:
        stages = write_callgrind(document, args.callgrind_out)
        lines.append(f"callgrind        : {stages} stages -> "
                     f"{args.callgrind_out}")
    rows = {row["stage"]: row for row in document["stages"]}
    absent = [stage for stage in baseline if stage not in rows]
    if absent:
        raise CommandError(f"baseline stage(s) this run did not make: "
                           f"{', '.join(absent)}")
    regressions = []
    for stage, budget in baseline.items():
        ns_per_packet = rows[stage]["ns_per_packet"]
        allowed = budget * args.baseline_tolerance
        verdict = "ok" if ns_per_packet <= allowed else "REGRESSED"
        lines.append(f"baseline         : {stage:<16} "
                     f"{ns_per_packet:.1f} vs {budget:.1f} ns/packet "
                     f"(allowed {allowed:.1f}) {verdict}")
        if verdict != "ok":
            regressions.append(stage)
    if regressions:
        lines.append(f"REGRESSION       : {', '.join(sorted(regressions))}")
    return Outcome(EXIT_ALARM if regressions else EXIT_OK, "\n".join(lines),
                   [("profile", args.json, document, "")])


Command = Callable[[argparse.Namespace, Any], Outcome]
ObsBuilder = Optional[Callable[[argparse.Namespace], Any]]

#: command -> (run, obs builder or None).
_COMMANDS: Dict[str, Tuple[Command, ObsBuilder]] = {
    "generate": (_cmd_generate, None),
    "attack": (_cmd_attack, None),
    "detect": (_cmd_detect, _exported_obs),
    "observe": (_cmd_observe, _observe_obs),
    "report": (_cmd_report, None),
    "profile": (_cmd_profile, _profile_obs),
    "query": (_cmd_query, None),
    "alerts": (_cmd_alerts, None),
    "fleet": (_cmd_fleet, None),
    "chaos": (_cmd_chaos, lambda args: _instrumentation(
        max_memory_events=args.max_memory_events)),
    "soak": (_cmd_soak, lambda args: _instrumentation(
        events_path=args.events_out, tsdb_retention=args.tsdb_retention)),
    "respond": (_cmd_respond, _respond_obs),
    "campaign": (_cmd_campaign, _exported_obs),
    "sensitivity": (_cmd_sensitivity, None),
    "table": (_cmd_table, None),
    "figure": (_cmd_figure, None),
    "theory": (_cmd_theory, None),
}


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
