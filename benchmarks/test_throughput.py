"""Columnar fastpath vs per-packet object pipeline throughput.

The fastpath's bargain mirrors the parallel engine's: it must change
*nothing* about the output (held scenario-by-scenario in
``tests/fastpath/``) while buying an order of magnitude of per-packet
throughput.  This bench runs the canonical capture workload — a
half-hour UNC trace serialized to two interface pcap images — through
both pipelines, writes the measurement to ``BENCH_throughput.json``,
and enforces the >= 10x target whenever the machine has >= 4 cores
(the same honest-fallback pattern as ``BENCH_parallel.json``; the
speedup is vectorization, not parallelism, so small boxes usually
clear the bar too — they just record instead of gate).
"""

import json
import os
import time
from pathlib import Path

from conftest import emit

from repro.core.syndog import SynDog
from repro.experiments.streaming import stream_detection
from repro.fastpath.pipeline import detect_from_sources
from repro.pcap.reader import PcapReader
from repro.pcap.writer import packets_to_pcap_bytes
from repro.trace.profiles import UNC
from repro.trace.synthetic import generate_packet_trace

import io

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

TARGET_SPEEDUP = 10.0
ENFORCE_CORES = 4
DURATION_SECONDS = 1800.0


def _object_pass(outbound_image, inbound_image):
    detector = SynDog()
    result = stream_detection(
        detector,
        PcapReader(io.BytesIO(outbound_image)).iter_packets(strict=False),
        PcapReader(io.BytesIO(inbound_image)).iter_packets(strict=False),
    )
    return result


def test_fastpath_throughput_vs_object_pipeline():
    cores = os.cpu_count() or 1

    trace = generate_packet_trace(UNC, seed=0, duration=DURATION_SECONDS)
    outbound_image = packets_to_pcap_bytes(trace.outbound)
    inbound_image = packets_to_pcap_bytes(trace.inbound)
    packets = len(trace.outbound) + len(trace.inbound)
    capture_bytes = len(outbound_image) + len(inbound_image)

    # Warm both paths once (imports, numpy ufunc setup) so the timed
    # passes measure steady-state throughput.
    _object_pass(outbound_image, inbound_image)
    detect_from_sources(outbound_image, inbound_image)

    start = time.perf_counter()
    object_result = _object_pass(outbound_image, inbound_image)
    object_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast_result, _ = detect_from_sources(outbound_image, inbound_image)
    fast_seconds = time.perf_counter() - start

    # Equivalence first: the speedup is worthless if the answer moved.
    assert fast_result == object_result

    speedup = object_seconds / fast_seconds
    enforced = cores >= ENFORCE_CORES
    artifact = {
        "bench": "fastpath_throughput",
        "workload": {
            "site": UNC.name,
            "duration_seconds": DURATION_SECONDS,
            "packets": packets,
            "capture_bytes": capture_bytes,
        },
        "cpu_count": cores,
        "object_seconds": object_seconds,
        "object_ns_per_packet": object_seconds / packets * 1e9,
        "fastpath_seconds": fast_seconds,
        "fastpath_ns_per_packet": fast_seconds / packets * 1e9,
        "fastpath_mpps": packets / fast_seconds / 1e6,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "target_enforced": enforced,
        "results_identical": True,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    emit(
        f"Columnar fastpath throughput (UNC, {packets} packets, "
        f"{capture_bytes / 1e6:.1f} MB of capture)\n"
        f"  cpu cores    : {cores}\n"
        f"  object path  : {object_seconds:8.3f} s "
        f"({artifact['object_ns_per_packet']:8.0f} ns/packet)\n"
        f"  fastpath     : {fast_seconds:8.3f} s "
        f"({artifact['fastpath_ns_per_packet']:8.0f} ns/packet, "
        f"{artifact['fastpath_mpps']:.2f} Mpps)\n"
        f"  speedup      : {speedup:8.2f}x  (target {TARGET_SPEEDUP}x, "
        f"{'enforced' if enforced else 'recorded only — too few cores'})\n"
        f"  artifact     : {ARTIFACT}"
    )

    if enforced:
        assert speedup >= TARGET_SPEEDUP, (
            f"fastpath bought only {speedup:.2f}x over the object "
            f"pipeline (target {TARGET_SPEEDUP}x)"
        )
