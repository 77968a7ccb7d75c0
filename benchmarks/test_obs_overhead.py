"""Observability overhead — the zero-cost-when-disabled contract.

The ``repro.obs`` layer threads optional instrumentation through the
whole detection path (classifier, sniffers, CUSUM stage).  Its design
contract is that a default-constructed pipeline — null registry, no
events — is indistinguishable from an uninstrumented build: instruments
are bound to ``None`` once at construction and every hot-path guard is
a single ``is not None`` check.

This bench holds that contract numerically.  It rebuilds the packet
ingestion chain exactly as it looked *before* the instrumentation
landed (same call depth, same classifier, same normalization and CUSUM
objects) and races it against the real, default-instrumented
``SynDog.observe_outbound`` over the same packet stream.  The
instrumented path must stay within 10% of the bare one, and the
measurement is written to ``BENCH_obs.json`` for the record.
"""

import json
import time
from pathlib import Path

from conftest import emit

from repro.core.cusum import NonParametricCusum
from repro.obs.events import EventLog, MemorySink
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Instrumentation
from repro.obs.server import ObsServer
from repro.core.normalization import NormalizedDifference
from repro.core.parameters import DEFAULT_PARAMETERS
from repro.core.sniffer import InboundSniffer, OutboundSniffer, PeriodReport
from repro.core.syndog import SynDog
from repro.packet.packet import make_syn

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

NUM_PACKETS = 20_000
PACKET_SPACING = 0.01  # 20k packets over 200 s = 10 observation periods
REPEATS = 7
MAX_OVERHEAD_RATIO = 1.10


# ----------------------------------------------------------------------
# The uninstrumented replica: the seed's ingestion chain, verbatim call
# depth, with no obs bindings and no hot-path guards at all.
# ----------------------------------------------------------------------
class BareExchange:
    def __init__(self, observation_period, start_time=0.0):
        self.observation_period = float(observation_period)
        self.outbound = OutboundSniffer()
        self.inbound = InboundSniffer()
        self._period_index = 0
        self._period_start = float(start_time)

    @property
    def current_period_end(self):
        return self._period_start + self.observation_period

    def _close_period(self):
        report = PeriodReport(
            period_index=self._period_index,
            start_time=self._period_start,
            end_time=self.current_period_end,
            syn_count=self.outbound.drain(),
            synack_count=self.inbound.drain(),
        )
        self._period_index += 1
        self._period_start += self.observation_period
        return report

    def _advance_to(self, timestamp):
        reports = []
        while timestamp >= self.current_period_end:
            reports.append(self._close_period())
        return reports

    def observe_outbound(self, packet):
        reports = self._advance_to(packet.timestamp)
        self.outbound.observe(packet)
        return reports


class BareSynDog:
    """The seed's SynDog packet path: exchange → normalizer → CUSUM."""

    def __init__(self, parameters=DEFAULT_PARAMETERS):
        self.parameters = parameters
        self.exchange = BareExchange(parameters.observation_period)
        self.normalizer = NormalizedDifference(alpha=parameters.ewma_alpha)
        self.cusum = NonParametricCusum(
            drift=parameters.drift, threshold=parameters.threshold
        )
        self._records = []

    def observe_outbound(self, packet):
        records = []
        for report in self.exchange.observe_outbound(packet):
            x = self.normalizer.observe(report.syn_count, report.synack_count)
            state = self.cusum.update(x)
            self._records.append((report, x, state))
            records.append(state)
        return records


def syn_stream():
    return [
        make_syn(i * PACKET_SPACING, "152.2.1.1", "8.8.8.8",
                 src_port=1024 + (i % 60000))
        for i in range(NUM_PACKETS)
    ]


def time_pass(make_detector, packets):
    """Best-of-REPEATS wall clock for one full ingestion pass, fresh
    detector each repeat (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        detector = make_detector()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def test_default_instrumentation_is_free(benchmark):
    packets = syn_stream()

    # Warm both paths (imports, classifier dispatch caches).
    time_pass(BareSynDog, packets[:1000])
    time_pass(SynDog, packets[:1000])

    bare = time_pass(BareSynDog, packets)
    instrumented = time_pass(SynDog, packets)
    ratio = instrumented / bare

    artifact = {
        "bench": "obs_overhead",
        "packets": NUM_PACKETS,
        "periods": int(NUM_PACKETS * PACKET_SPACING
                       / DEFAULT_PARAMETERS.observation_period),
        "repeats": REPEATS,
        "bare_seconds": bare,
        "instrumented_seconds": instrumented,
        "ratio": ratio,
        "max_ratio": MAX_OVERHEAD_RATIO,
        "per_packet_ns_bare": bare / NUM_PACKETS * 1e9,
        "per_packet_ns_instrumented": instrumented / NUM_PACKETS * 1e9,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    emit(
        "Observability overhead (default null instrumentation)\n"
        f"  bare replica : {bare * 1e3:8.2f} ms "
        f"({artifact['per_packet_ns_bare']:.0f} ns/packet)\n"
        f"  instrumented : {instrumented * 1e3:8.2f} ms "
        f"({artifact['per_packet_ns_instrumented']:.0f} ns/packet)\n"
        f"  ratio        : {ratio:8.3f}  (budget {MAX_OVERHEAD_RATIO})\n"
        f"  artifact     : {ARTIFACT}"
    )

    # Sanity: both paths agree on what they computed.
    reference = SynDog()
    for packet in packets:
        reference.observe_outbound(packet)
    reference.flush()
    assert len(reference.records) == artifact["periods"]

    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"default-instrumented SynDog.observe_outbound is "
        f"{(ratio - 1) * 100:.1f}% slower than the bare path "
        f"(budget {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%)"
    )

    # Benchmark kernel: the instrumented fast path, packet by packet.
    dog = SynDog()
    chunk = packets[:1000]

    def observe_thousand():
        for packet in chunk:
            dog.observe_outbound(packet)

    benchmark(observe_thousand)


def test_flight_recorder_overhead_within_budget():
    """The live half of the stack must be as cheap as the dead half.

    Flight recorder recording every period, events into a bounded
    in-memory sink, and the telemetry server up (idle — nobody
    scraping): per-packet cost is still the null-instrument fast path
    plus a per-*period* snapshot, so the same ≤10% budget applies.
    """
    packets = syn_stream()

    def recorded_syndog():
        events = EventLog(MemorySink(max_events=10_000))
        obs = Instrumentation(
            events=events,
            recorder=FlightRecorder(
                capacity=32, post_alarm_periods=5, events=events
            ),
        )
        return SynDog(obs=obs)

    time_pass(BareSynDog, packets[:1000])
    time_pass(recorded_syndog, packets[:1000])

    server_obs = Instrumentation(events=EventLog(MemorySink()))
    with ObsServer(server_obs):
        bare = time_pass(BareSynDog, packets)
        recorded = time_pass(recorded_syndog, packets)
    ratio = recorded / bare

    artifact = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {
        "bench": "obs_overhead",
        "max_ratio": MAX_OVERHEAD_RATIO,
    }
    artifact.update(
        recorder_bare_seconds=bare,
        recorder_seconds=recorded,
        recorder_ratio=ratio,
        recorder_per_packet_ns=recorded / NUM_PACKETS * 1e9,
    )
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    emit(
        "Observability overhead (flight recorder + idle server)\n"
        f"  bare replica : {bare * 1e3:8.2f} ms\n"
        f"  recorded     : {recorded * 1e3:8.2f} ms "
        f"({artifact['recorder_per_packet_ns']:.0f} ns/packet)\n"
        f"  ratio        : {ratio:8.3f}  (budget {MAX_OVERHEAD_RATIO})\n"
        f"  artifact     : {ARTIFACT}"
    )

    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"flight-recorder-enabled SynDog.observe_outbound is "
        f"{(ratio - 1) * 100:.1f}% slower than the bare path "
        f"(budget {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%)"
    )


def test_tsdb_overhead_within_budget():
    """The history store must be marginal on an instrumented pipeline.

    Full ``enabled_instrumentation`` with the TSDB recording every
    per-period detector sample plus registry snapshots and the builtin
    alert rules evaluating at every period watermark — versus the same
    instrumented pipeline with the history layer switched off.  TSDB
    appends and alert evaluations happen once per *period* (every 2000
    packets here), so the marginal per-packet budget is the same ≤10%.
    """
    from repro.obs.alerts import builtin_rules
    from repro.obs.runtime import enabled_instrumentation

    packets = syn_stream()

    def plain_syndog():
        obs = enabled_instrumentation(
            max_memory_events=10_000, tsdb=False
        )
        return SynDog(obs=obs)

    def tsdb_syndog():
        obs = enabled_instrumentation(
            max_memory_events=10_000,
            alert_rules=builtin_rules(
                threshold=DEFAULT_PARAMETERS.threshold
            ),
        )
        return SynDog(obs=obs)

    time_pass(plain_syndog, packets[:1000])
    time_pass(tsdb_syndog, packets[:1000])

    # Interleave the two sides repeat-by-repeat so scheduler drift
    # lands on both equally; best-of-min filters the rest.
    bare = historied = float("inf")
    for _ in range(REPEATS):
        detector = plain_syndog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        bare = min(bare, time.perf_counter() - start)
        detector = tsdb_syndog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        historied = min(historied, time.perf_counter() - start)
    ratio = historied / bare

    artifact = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {
        "bench": "obs_overhead",
        "max_ratio": MAX_OVERHEAD_RATIO,
    }
    artifact.update(
        tsdb_bare_seconds=bare,
        tsdb_seconds=historied,
        tsdb_ratio=ratio,
        tsdb_per_packet_ns=historied / NUM_PACKETS * 1e9,
    )
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    emit(
        "Observability overhead (TSDB history + builtin alert rules)\n"
        f"  no history   : {bare * 1e3:8.2f} ms\n"
        f"  with history : {historied * 1e3:8.2f} ms "
        f"({artifact['tsdb_per_packet_ns']:.0f} ns/packet)\n"
        f"  ratio        : {ratio:8.3f}  (budget {MAX_OVERHEAD_RATIO})\n"
        f"  artifact     : {ARTIFACT}"
    )

    # Sanity: the history actually recorded the run.
    dog = tsdb_syndog()
    for packet in packets:
        dog.observe_outbound(packet)
    dog.flush()
    (cusum,) = dog._tsdb.series("syndog_cusum")
    assert len(cusum.samples) == int(
        NUM_PACKETS * PACKET_SPACING / DEFAULT_PARAMETERS.observation_period
    )

    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"tsdb-enabled SynDog.observe_outbound is "
        f"{(ratio - 1) * 100:.1f}% slower than the history-free "
        f"instrumented path (budget {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%)"
    )
