"""Micro-benchmarks of the hot kernels: per-observation CUSUM update,
byte-level packet classification, header codecs and pcap throughput.

These are the operations a deployed SYN-dog performs per packet / per
period; the numbers substantiate the paper's low-overhead claim on this
substrate.
"""

import io
import random

from repro.core.cusum import NonParametricCusum
from repro.core.normalization import NormalizedDifference
from repro.packet.classify import classify_ip_bytes
from repro.packet.packet import Packet, make_syn
from repro.pcap.reader import PcapReader
from repro.pcap.writer import packets_to_pcap_bytes


def test_cusum_update_throughput(benchmark):
    cusum = NonParametricCusum(drift=0.35, threshold=1.05)
    observations = [0.01 * (i % 30) for i in range(10_000)]

    def run():
        for x in observations:
            cusum.update(x)

    benchmark(run)


def test_normalizer_throughput(benchmark):
    normalizer = NormalizedDifference(initial_k=100.0)

    def run():
        for i in range(10_000):
            normalizer.observe(100 + (i % 7), 100)

    benchmark(run)


def test_byte_classifier_throughput(benchmark):
    wire = make_syn(0.0, "152.2.0.1", "8.8.8.8").encode_ip()

    def run():
        for _ in range(10_000):
            classify_ip_bytes(wire)

    benchmark(run)


def test_packet_decode_throughput(benchmark):
    wire = make_syn(0.0, "152.2.0.1", "8.8.8.8").encode_frame()

    def run():
        for _ in range(1_000):
            Packet.decode_frame(wire)

    benchmark(run)


def test_pcap_write_read_throughput(benchmark):
    rng = random.Random(1)
    packets = [
        make_syn(i * 0.001, "152.2.0.1", "8.8.8.8", src_port=1024 + i % 60000)
        for i in range(2_000)
    ]

    def run():
        image = packets_to_pcap_bytes(packets)
        reader = PcapReader(io.BytesIO(image))
        return sum(1 for _ in reader.iter_records())

    assert run() == 2_000
    benchmark(run)
