#!/usr/bin/env python3
"""SYN-dog benchmark: what an operator waits for, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload capture-unc --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off, through the entry
points a user calls: the ``repro`` CLI in a fresh process, plus the
in-process functions the CLI calls.  It reports the ``end_to_end``
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the workload's CLI
command in-process, once untraced and once with every layer wrapped
(``tracing.py``), and reports the ``per_layer`` metrics.

Inputs come from ``--seed`` and are generated before any timing starts.
Every output is checked against an oracle, and a mismatch counts as a
failed operation.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host, versions, sizes, seed and sample counts.

The host this runs on is shared: other load slows it, per vCPU, in
phases that can outlast a run.  So a run repeats every timed operation,
interleaved.  ``setup_s`` is the fastest set-up probe.  ``wall_s`` is
the median CLI run, each divided by the host slowdown
(:func:`probe.host_slowdown`) the child read on its own vCPU at its
start and end.  A warm pass of interpreter-bound work is timed in
short units (a chunk of periods, one soak epoch), each divided by the
host slowdown read on the same thread just before it; the pass time is
the sum over units of each unit's median adjusted time across the run's passes over the same
inputs, and verdict latency likewise takes each period's median
adjusted time.  The capture's fastpath pass, numpy column work, is
adjusted the same way by a numpy kernel over the capture's own files.
Raw pass times, slowdown readings, medians and tail
percentiles of every sample set are in the ``info`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

from probe import build_obs, host_slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

#: A child process still running after this long is killed.
CHILD_TIMEOUT_S = 150.0
#: Fastpath passes per round, and replays of the capture's ~90 periods
#: after each, for verdict latency.
CAPTURE_PASSES_PER_ROUND = 5
CAPTURE_REPLAYS_PER_PASS = 2
#: The capture kernel's cost (``CaptureUNC._capture_slowdown``) on the
#: host the benchmark was tuned on; see ``probe.REFERENCE_KERNEL_S``.
CAPTURE_KERNEL_NS_PER_BYTE = 1.2
#: Worker processes of the soak-sharded user command.
SOAK_WORKERS = 2
CAPTURE_FLOOD_RATE = 60.0  # SYN/s, above UNC's 37 SYN/s detection floor
LONGRUN_FLOOD_RATE = 5.0  # SYN/s, above Auckland's 1.75 SYN/s floor
LONGRUN_FLOOD_SECONDS = 600.0
#: Periods per timed unit of a longrun-alerts warm pass (~50 ms).
LONGRUN_CHUNK = 100

#: Per metric, a list of samples.  ``unit_passes`` holds one list of
#: unit times (s) per warm pass, ``latency_passes`` one list of
#: per-period latencies (ns) per pass; passes are over identical inputs.
Samples = Dict[str, List[Any]]


@dataclass(frozen=True)
class Size:
    capture_seconds: float
    capture_flood_start: float
    capture_flood_seconds: float
    longrun_periods: int
    longrun_flood_period: int
    soak_days: int


SIZES = {
    "full": Size(1800.0, 900.0, 600.0, 5_000, 4_500, 4),
    # The self-test's sizes: every code path, in seconds.
    "tiny": Size(120.0, 40.0, 80.0, 300, 200, 1),
}


class Outcomes:
    """Operations attempted and failed.  An operation fails when its
    output does not match the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []

    def record(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


_ALARM_LINE = re.compile(r"^ALARM\b.*\(period (\d+)\)\s*$", re.MULTILINE)


def check_verdict(exit_code: int, stdout: str, alarm_period: Optional[int]) -> bool:
    """A detect/observe run agrees with the oracle: exit 2 and the
    oracle's first alarm period on the ALARM line, or exit 0 and no
    ALARM line when the oracle never alarms."""
    match = _ALARM_LINE.search(stdout)
    if alarm_period is None:
        return exit_code == 0 and match is None
    return (
        exit_code == 2 and match is not None and int(match.group(1)) == alarm_period
    )


def check_soak(exit_code: int, document: str, reference: str) -> bool:
    """A soak run exits 0, its JSON is byte-identical to the
    ``--workers 1`` reference, and no restore broke continuity."""
    if exit_code != 0 or document != reference:
        return False
    return json.loads(document)["continuity"]["failures"] == []


# ----------------------------------------------------------------------
# Processes and probes
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class ChildRun:
    exit_code: int
    stdout: str
    wall_s: float
    peak_rss_mb: float
    #: Mean host slowdown the child read on its own vCPU at its start and
    #: end, and the seconds those readings took (part of ``wall_s``).
    slowdown: float
    calibration_s: float


def run_cli(argv: List[str], workdir: Path) -> ChildRun:
    """``python -m repro <argv>`` in a fresh process, run through
    ``probe.py cli`` so that the child reads the host slowdown on its
    own vCPU: wall clock from spawn to exit, and the largest peak RSS of
    any one process in its tree (``wait4`` reports the maximum, not the
    sum)."""
    out_path, err_path = workdir / "cli.stdout", workdir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), "cli", *argv],
            stdout=out, stderr=err, env=_child_env(), cwd=workdir,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    try:
        readings = json.loads(err_path.read_text().splitlines()[-1])
    except (IndexError, ValueError):  # the command failed before the reading
        readings = {}
    slowdown = readings.get("slowdown", [float("nan")])
    return ChildRun(
        os.waitstatus_to_exitcode(status), out_path.read_text(), wall,
        usage.ru_maxrss / 1024.0, statistics.fmean(slowdown),
        readings.get("calibration_s", 0.0),
    )


def setup_seconds(workload: str, argv: List[str], workdir: Path) -> Optional[float]:
    """Spawn-to-ready time of a fresh interpreter set up for *argv*
    (see ``probe.py``); None when the probe failed."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), "setup", workload, *argv],
        stdout=subprocess.PIPE, env=_child_env(), cwd=workdir,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    return elapsed if line.strip() == b"ready" and proc.returncode == 0 else None


def startup_census(workdir: Path) -> Optional[Dict[str, Any]]:
    """The ``repro.*`` modules that ``import repro.core`` and ``import
    repro.cli`` load in a fresh interpreter, and the import time."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), "census"], capture_output=True,
        env=_child_env(), cwd=workdir, timeout=CHILD_TIMEOUT_S, check=False,
    )
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def call_cli_main(argv: List[str]) -> Tuple[int, str, float]:
    """The CLI in-process: ``(exit code, stdout, seconds)``."""
    from repro.cli import main

    buffer = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue(), perf_counter() - t0


class SlowdownLog:
    """Every :func:`host_slowdown` reading of a run, for ``info``."""

    def __init__(self, samples: Samples) -> None:
        self._readings = samples["host_slowdown"]

    def __call__(self) -> float:
        slowdown = host_slowdown()
        self._readings.append(slowdown)
        return slowdown


@contextlib.contextmanager
def soak_timers(
    slowdown: SlowdownLog,
) -> Iterator[Tuple[Dict[int, Tuple[float, float]], List[float], List[float]]]:
    """Time each soak epoch (``run_soak_epoch``: raw seconds and the
    host slowdown read just before it, by epoch index) and each
    ``SynDog.observe_period`` call of detectors with a live obs bundle
    (ns, adjusted by its epoch's slowdown).  The third list collects
    the seconds spent reading the slowdown.  The soak runs an
    uninstrumented reference detector beside each instrumented one; only
    the instrumented one's periods are the verdicts an operator sees."""
    import repro.experiments.soak as soak
    from repro.core.syndog import SynDog

    run_epoch, observe = soak.run_soak_epoch, SynDog.observe_period
    epochs: Dict[int, Tuple[float, float]] = {}
    latencies: List[float] = []
    calibration: List[float] = []

    def timed_epoch(task: Any, obs: Any = None) -> Any:
        start = perf_counter()
        factor = slowdown()
        first = len(latencies)
        t0 = perf_counter()
        payload = run_epoch(task, obs=obs)
        epochs[task.epoch_index] = (perf_counter() - t0, factor)
        latencies[first:] = [ns / factor for ns in latencies[first:]]
        calibration.append(t0 - start)
        return payload

    def timed_observe(self: Any, *args: Any, **kwargs: Any) -> Any:
        if self._m_periods is None:  # built without a live obs bundle
            return observe(self, *args, **kwargs)
        t0 = perf_counter_ns()
        record = observe(self, *args, **kwargs)
        latencies.append(perf_counter_ns() - t0)
        return record

    soak.run_soak_epoch, SynDog.observe_period = timed_epoch, timed_observe
    try:
        yield epochs, latencies, calibration
    finally:
        soak.run_soak_epoch, SynDog.observe_period = run_epoch, observe


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: inputs and oracle (:meth:`prepare`, untimed), the
    user command, the checks on its output, and the warm in-process
    passes it is timed by."""

    name = ""
    #: Whether the traced run leaves out detectors without live obs.
    trace_live_detectors_only = False

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.sizes: Dict[str, Any] = {}
        #: Detection periods and packets one warm pass consumes.
        self.pass_periods = 0
        self.pass_packets = 0

    def prepare(self, outcomes: Outcomes, samples: Samples) -> None:
        raise NotImplementedError

    def cli_argv(self) -> List[str]:
        """The user command, as ``repro`` arguments."""
        raise NotImplementedError

    def inprocess_argv(self, tag: str) -> List[str]:
        """The command the traced run calls ``repro.cli.main`` with."""
        return self.cli_argv()

    def check_output(self, exit_code: int, stdout: str, tag: str) -> bool:
        raise NotImplementedError

    def check_spans(self, recorder: Any) -> bool:
        return True

    def measure(self, outcomes: Outcomes, samples: Samples) -> None:
        """One round's warm in-process passes."""
        raise NotImplementedError


class CaptureUNC(Workload):
    """``repro detect`` on a UNC-profile pcap pair with a packet flood."""

    name = "capture-unc"

    def prepare(self, outcomes: Outcomes, samples: Samples) -> None:
        import random

        from repro.attack.flooder import FloodSource
        from repro.experiments.streaming import detect_from_pcaps
        from repro.pcap.writer import write_pcap
        from repro.trace.mixer import AttackWindow, mix_flood_into_packets
        from repro.trace.profiles import UNC
        from repro.trace.synthetic import generate_packet_trace

        size = self.size
        trace = generate_packet_trace(
            UNC, seed=self.seed, duration=size.capture_seconds
        )
        trace = mix_flood_into_packets(
            trace,
            FloodSource(pattern=CAPTURE_FLOOD_RATE),
            AttackWindow(size.capture_flood_start, size.capture_flood_seconds),
            random.Random(self.seed),
        )
        self.pcap_out = self.workdir / "capture.out.pcap"
        self.pcap_in = self.workdir / "capture.in.pcap"
        write_pcap(self.pcap_out, trace.outbound)
        write_pcap(self.pcap_in, trace.inbound)
        self.pass_packets = len(trace.outbound) + len(trace.inbound)
        del trace
        gc.collect()
        # The per-packet object pipeline is the differential oracle.
        self.oracle, _dog = detect_from_pcaps(
            self.pcap_out, self.pcap_in, fastpath=False
        )
        self.pass_periods = len(self.oracle.records)
        self.sizes = {
            "capture_seconds": size.capture_seconds,
            "packets": self.pass_packets,
            "capture_bytes": (
                self.pcap_out.stat().st_size + self.pcap_in.stat().st_size
            ),
            "periods": len(self.oracle.records),
            "flood_syn_per_s": CAPTURE_FLOOD_RATE,
            "first_alarm_period": self.oracle.first_alarm_period,
        }
        self._fast_pass(outcomes, None)  # warm the page cache and imports

    def cli_argv(self) -> List[str]:
        return [
            "detect", "--pcap-out", str(self.pcap_out),
            "--pcap-in", str(self.pcap_in), "--quiet",
        ]

    def check_output(self, exit_code: int, stdout: str, tag: str) -> bool:
        return check_verdict(exit_code, stdout, self.oracle.first_alarm_period)

    def check_spans(self, recorder: Any) -> bool:
        return bool(recorder.results) and all(
            result == self.oracle for result in recorder.results
        )

    def _fast_pass(self, outcomes: Outcomes, samples: Optional[Samples]) -> None:
        from repro.fastpath.pipeline import detect_from_pcaps_fast

        gc.collect()
        factor = self._capture_slowdown(samples) if samples is not None else 1.0
        t0 = perf_counter()
        result, _dog = detect_from_pcaps_fast(self.pcap_out, self.pcap_in)
        elapsed = perf_counter() - t0
        ok = outcomes.record("fastpath detect", result == self.oracle)
        if ok and samples is not None:
            samples["raw_pass_s"].append(elapsed)
            samples["unit_passes"].append([elapsed / factor])  # one ~70 ms unit

    def _capture_slowdown(self, samples: Samples) -> float:
        """How much slower than the reference host this thread reads and
        scans pcap bytes with numpy right now: a fixed numpy kernel over
        this capture's own files (read, strided gather, bincount,
        cumsum), per byte, over ``CAPTURE_KERNEL_NS_PER_BYTE``.  The
        fastpath pass is numpy column work, which the pure-Python kernel
        does not track."""
        import numpy

        t0 = perf_counter()
        for path in (self.pcap_out, self.pcap_in):
            data = numpy.fromfile(path, dtype=numpy.uint8)
            numpy.bincount(data[numpy.arange(24, data.size - 64, 97)], minlength=256)
            numpy.cumsum(data[::7].astype(numpy.int64))
        ns_per_byte = (perf_counter() - t0) * 1e9 / self.sizes["capture_bytes"]
        slowdown = ns_per_byte / CAPTURE_KERNEL_NS_PER_BYTE
        samples["host_slowdown.capture"].append(slowdown)
        return slowdown

    def measure(self, outcomes: Outcomes, samples: Samples) -> None:
        from repro.core.syndog import SynDog

        slowdown = SlowdownLog(samples)
        for _ in range(CAPTURE_PASSES_PER_ROUND):
            self._fast_pass(outcomes, samples)
            # Verdict latency: the detector step the fastpath takes per
            # closed period, replayed over this capture's period counts.
            for _ in range(CAPTURE_REPLAYS_PER_PASS):
                dog = SynDog()
                batch = []
                factor = slowdown()
                for record in self.oracle.records:
                    t0 = perf_counter_ns()
                    dog.observe_period(
                        record.syn_count, record.synack_count,
                        start_time=record.start_time,
                    )
                    batch.append((perf_counter_ns() - t0) / factor)
                if outcomes.record("verdict replay", dog.result() == self.oracle):
                    samples["latency_passes"].append(batch)


class LongrunAlerts(Workload):
    """``repro observe --alerts`` on a long Auckland count trace."""

    name = "longrun-alerts"

    def prepare(self, outcomes: Outcomes, samples: Samples) -> None:
        from repro.attack.flooder import FloodSource
        from repro.cli import build_parser
        from repro.core.parameters import DEFAULT_PARAMETERS
        from repro.core.syndog import SynDog
        from repro.trace.io import save_count_trace
        from repro.trace.mixer import AttackWindow, mix_flood_into_counts
        from repro.trace.profiles import AUCKLAND
        from repro.trace.synthetic import generate_count_trace

        size = self.size
        period = DEFAULT_PARAMETERS.observation_period
        background = generate_count_trace(
            AUCKLAND, seed=self.seed, period=period,
            duration=size.longrun_periods * period,
        )
        self.trace = mix_flood_into_counts(
            background,
            FloodSource(pattern=LONGRUN_FLOOD_RATE),
            AttackWindow(size.longrun_flood_period * period, LONGRUN_FLOOD_SECONDS),
        )
        self.csv = self.workdir / "longrun.csv"
        save_count_trace(self.trace, self.csv)
        self.pass_periods = len(self.trace.counts)
        self.pass_packets = sum(syn + synack for syn, synack in self.trace.counts)
        # Oracle: the bare detector, without obs, over the same counts.
        self.alarm_period = SynDog().observe_counts(self.trace.counts).first_alarm_period
        outcomes.record("bare detector alarms", self.alarm_period is not None)
        self.args = build_parser().parse_args(self.cli_argv())
        self.sizes = {
            "periods": self.pass_periods,
            "packets": self.pass_packets,
            "flood_syn_per_s": LONGRUN_FLOOD_RATE,
            "flood_start_period": size.longrun_flood_period,
            "first_alarm_period": self.alarm_period,
        }

    def cli_argv(self) -> List[str]:
        return ["observe", "--trace", str(self.csv), "--alerts"]

    def check_output(self, exit_code: int, stdout: str, tag: str) -> bool:
        return self.alarm_period is not None and check_verdict(
            exit_code, stdout, self.alarm_period
        )

    def measure(self, outcomes: Outcomes, samples: Samples) -> None:
        # What `repro observe --alerts` runs once the trace is loaded:
        # the full obs bundle plus builtin_rules(), one period at a time,
        # timed per period and per chunk of LONGRUN_CHUNK periods.
        from repro.core.syndog import SynDog

        counts = self.trace.counts
        slowdown = SlowdownLog(samples)
        obs = build_obs(self.args)
        dog = SynDog(obs=obs)
        batch: List[float] = []
        units: List[float] = []
        raw = 0.0
        gc.collect()
        for first in range(0, len(counts), LONGRUN_CHUNK):
            factor = slowdown()
            chunk: List[int] = []
            t0 = perf_counter()
            for syn, synack in counts[first:first + LONGRUN_CHUNK]:
                start = perf_counter_ns()
                dog.observe_period(syn, synack)
                chunk.append(perf_counter_ns() - start)
            elapsed = perf_counter() - t0
            raw += elapsed
            units.append(elapsed / factor)
            batch.extend(ns / factor for ns in chunk)
        obs.finalize()
        ok = dog.result().first_alarm_period == self.alarm_period
        if outcomes.record("warm observe --alerts", ok):
            samples["latency_passes"].append(batch)
            samples["unit_passes"].append(units)
            samples["raw_pass_s"].append(raw)


class SoakSharded(Workload):
    """``repro soak --workers 2``: epochs in shard processes, then the
    parent's merge, ledger replay, SLO timeline and alert replay."""

    name = "soak-sharded"
    # Each epoch also feeds an uninstrumented reference detector, which
    # is a continuity check, not a verdict the operator sees.
    trace_live_detectors_only = True

    def _out(self, tag: str) -> Path:
        return self.workdir / f"soak-{tag}.json"

    def cli_argv(self, tag: str = "cli", workers: int = SOAK_WORKERS) -> List[str]:
        return [
            "soak", "--seed", str(self.seed),
            "--sim-days", str(self.size.soak_days),
            "--workers", str(workers), "--out", str(self._out(tag)),
        ]

    def inprocess_argv(self, tag: str) -> List[str]:
        # --workers 1 runs the identical shard plan in this process, so
        # shard-side spans are not lost in forked children.
        return self.cli_argv(tag, workers=1)

    def check_output(self, exit_code: int, stdout: str, tag: str) -> bool:
        path = self._out(tag)
        document = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
        return check_soak(exit_code, document, self.reference)

    def _campaign(
        self, samples: Samples
    ) -> Tuple[Any, str, List[float], float, float, List[float]]:
        """``run_soak_campaign`` as ``repro soak --workers 1`` calls it
        (the shard plan of ``--workers 2``, run in this process): the
        report, its JSON, the adjusted unit times (each epoch, then the
        parent's merge, replay, SLO and alert work as one unit), the raw
        seconds, packets the detectors consumed, and the instrumented
        detectors' adjusted period latencies."""
        from repro.cli import build_parser
        from repro.experiments.soak import run_soak_campaign

        slowdown = SlowdownLog(samples)
        args = build_parser().parse_args(self.cli_argv(workers=1))
        obs = build_obs(args)
        gc.collect()
        with soak_timers(slowdown) as (epochs, latencies, calibration):
            before = slowdown()
            t0 = perf_counter()
            report = run_soak_campaign(
                site=args.site, seed=args.seed, sim_days=args.sim_days,
                periods_per_epoch=args.periods_per_epoch, rate=args.rate,
                obs=obs, workers=args.workers,
            )
            elapsed = perf_counter() - t0
            after = slowdown()
        raw = elapsed - sum(calibration)
        timed = [epochs[index] for index in sorted(epochs)]
        parent_s = raw - sum(seconds for seconds, _factor in timed)
        units = [seconds / factor for seconds, factor in timed]
        units.append(parent_s * 2 / (before + after))
        document = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        registry = obs.registry
        packets = (
            registry.get("syndog_syn_total").value
            + registry.get("syndog_synack_total").value
        )
        obs.finalize()
        return report, document, units, raw, packets, latencies

    def prepare(self, outcomes: Outcomes, samples: Samples) -> None:
        report, self.reference, _units, _raw, packets, latencies = (
            self._campaign(samples)
        )
        if outcomes.record("soak reference healthy", report.healthy):
            samples["latency_passes"].append(latencies)
        self.pass_periods = report.total_periods
        self.pass_packets = packets
        self.sizes = {
            "sim_days": self.size.soak_days,
            "epochs": report.epochs,
            "periods": report.total_periods,
            "packets": packets,
            "workers": SOAK_WORKERS,
        }

    def measure(self, outcomes: Outcomes, samples: Samples) -> None:
        _report, document, units, raw, packets, latencies = self._campaign(samples)
        ok = document == self.reference and packets == self.pass_packets
        if outcomes.record("warm soak", ok):
            samples["latency_passes"].append(latencies)
            samples["unit_passes"].append(units)
            samples["raw_pass_s"].append(raw)


WORKLOADS = {cls.name: cls for cls in (CaptureUNC, LongrunAlerts, SoakSharded)}


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    """The q-quantile (0 < q < 1), interpolated between order statistics."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _describe(values: List[float]) -> Dict[str, float]:
    """Sample count, min, median, max, and the highest of p90/p99/p99.9
    with at least ten samples beyond it."""
    summary: Dict[str, float] = {"n": len(values)}
    if values:
        summary.update(
            min=min(values), median=statistics.median(values), max=max(values)
        )
        for q in (0.999, 0.99, 0.9):
            if len(values) * (1 - q) >= 10:
                summary[f"p{q * 100:g}"] = _percentile(values, q)
                break
    return summary


def _period_medians_us(passes: List[List[float]]) -> List[float]:
    """Each period's median adjusted latency across passes over the
    same inputs.  A median, not a minimum: with many passes the minimum
    of time over slowdown picks the readings a burst inflated."""
    return [statistics.median(column) / 1e3 for column in zip(*passes)]


def _pass_s(passes: List[List[float]]) -> float:
    """A warm pass's adjusted time: the sum over its units of each
    unit's median adjusted time across passes over the same inputs."""
    return sum(statistics.median(column) for column in zip(*passes))


def timed_run(
    workload: Workload, outcomes: Outcomes, samples: Samples, seconds: float
) -> int:
    """Measuring rounds until *seconds* have passed; returns the rounds.

    A round is twice a set-up probe and the user command, then a warm
    pass, so every kind of sample is spread over the run."""
    argv = workload.cli_argv()
    # Untimed: fills the bytecode cache, which users do not pay per run.
    setup_seconds(workload.name, argv, workload.workdir)
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        rounds += 1
        for _ in range(2):
            elapsed = setup_seconds(workload.name, argv, workload.workdir)
            if outcomes.record("setup probe", elapsed is not None):
                samples["setup_s"].append(elapsed)
            run = run_cli(argv, workload.workdir)
            ok = workload.check_output(run.exit_code, run.stdout, "cli")
            if outcomes.record(f"repro {argv[0]}", ok):
                samples["wall_s"].append(
                    (run.wall_s - run.calibration_s) / run.slowdown
                )
                samples["raw_wall_s"].append(run.wall_s)
                samples["host_slowdown.cli"].append(run.slowdown)
                samples["peak_rss_mb"].append(run.peak_rss_mb)
        workload.measure(outcomes, samples)
    return rounds


def end_to_end_metrics(workload: Workload, samples: Samples) -> Dict[str, float]:
    """Each timing as the module docstring describes; peak RSS is not
    disturbed by load and is a median."""
    best = {"setup_s": min, "wall_s": statistics.median,
            "peak_rss_mb": statistics.median}
    values = {name: pick(samples[name]) for name, pick in best.items() if samples[name]}
    if samples["unit_passes"]:
        seconds = _pass_s(samples["unit_passes"])
        values["periods_per_s"] = workload.pass_periods / seconds
        values["pkts_per_s"] = workload.pass_packets / seconds
    if samples["latency_passes"]:
        latency_us = _period_medians_us(samples["latency_passes"])
        values["verdict_latency_p50_us"] = statistics.median(latency_us)
    return values


def describe_samples(samples: Samples) -> Dict[str, Any]:
    described = {
        name: _describe(values)
        for name, values in samples.items()
        if name not in ("latency_passes", "unit_passes")
    }
    units = samples["unit_passes"]
    if units:
        described["warm_pass_s"] = {
            "passes": len(units),
            "units_per_pass": len(units[0]),
            "adjusted_pass_totals": _describe([sum(batch) for batch in units]),
            "sum_of_unit_medians": _pass_s(units),
        }
    passes = samples["latency_passes"]
    if passes:
        described["verdict_latency_us"] = {
            "passes": len(passes),
            "all_adjusted_samples": _describe(
                [ns / 1e3 for batch in passes for ns in batch]
            ),
            "period_medians": _describe(_period_medians_us(passes)),
        }
    return described


def traced_run(
    workload: Workload, outcomes: Outcomes, info: Dict[str, Any]
) -> Dict[str, float]:
    from tracing import SpanRecorder, layer_metrics

    censuses = [startup_census(workload.workdir) for _ in range(3)]
    repeats = all(
        census is not None
        and (census["core"], census["cli"]) == (censuses[0]["core"], censuses[0]["cli"])
        for census in censuses
    )
    outcomes.record("startup census repeats", repeats)

    code, stdout, untraced_s = call_cli_main(workload.inprocess_argv("untraced"))
    outcomes.record(
        "untraced in-process run", workload.check_output(code, stdout, "untraced")
    )
    recorder = SpanRecorder(workload.trace_live_detectors_only)
    with recorder.installed():
        code, stdout, traced_s = call_cli_main(workload.inprocess_argv("traced"))
    outcomes.record(
        "traced run",
        workload.check_output(code, stdout, "traced")
        and workload.check_spans(recorder),
    )

    values = layer_metrics(recorder)
    values["tracing.overhead_ratio"] = traced_s / untraced_s
    if repeats:
        values["startup.import_s"] = statistics.median(
            census["import_s"] for census in censuses
        )
        values["startup.modules_loaded.core"] = len(censuses[0]["core"])
        values["startup.modules_loaded.cli"] = len(censuses[0]["cli"])
        info["startup_modules"] = {
            "core": censuses[0]["core"], "cli": censuses[0]["cli"],
        }
    spans_path = SPANS_DIR / f"spans-{workload.name}.csv.gz"
    recorder.write(spans_path)
    info.update(
        untraced_s=untraced_s,
        traced_s=traced_s,
        spans=len(recorder.start),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return values


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric names and units ``BENCHMARK.json`` declares for the mode."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = document["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measuring rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is the self-test's")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program source (src/repro) beside perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    declared = declared_metrics(bool(args.trace))
    info: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "size": asdict(SIZES[args.scale]),
    }
    outcomes = Outcomes()
    samples: Samples = defaultdict(list)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.scale], workdir)
        workload.prepare(outcomes, samples)
        if args.trace:
            values = traced_run(workload, outcomes, info)
            values["error_rate"] = len(outcomes.failed) / outcomes.attempted
        else:
            info["rounds"] = timed_run(workload, outcomes, samples, args.seconds)
            values = end_to_end_metrics(workload, samples)
            info["samples"] = describe_samples(samples)
        info["sizes"] = workload.sizes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    info["failures"] = outcomes.failed
    missing = [name for name in declared if name not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}; "
              f"failures: {outcomes.failed}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not outcomes.failed,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
