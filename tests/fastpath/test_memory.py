"""The fastpath's memory does not grow with the capture.

A scan keeps one block and one count per period, so a detection over a
capture nine times longer must peak (tracemalloc) within 1 MiB of the
short one's.  Keeping every packet's timestamp and code until both
captures are scanned costs 10-20 bytes a packet: several MiB here.
"""

from __future__ import annotations

import gc
import struct
import tracemalloc

import numpy as np

from repro.fastpath.columns import DEFAULT_BLOCK_BYTES
from repro.fastpath.pipeline import detect_from_pcaps_fast
from repro.pcap.writer import packets_to_pcap_bytes
from repro.trace.profiles import SITE_PROFILES
from repro.trace.synthetic import generate_packet_trace

SECONDS = 200
COPIES = 9


def _tiled(image: bytes, copies: int, span: int) -> bytes:
    """*image*'s records *copies* times over, copy *i* stamped
    ``i * span`` seconds later (a little-endian capture)."""
    assert image[:4] == struct.pack("<I", 0xA1B2C3D4)
    body = np.frombuffer(image, dtype=np.uint8, offset=24)
    heads = []
    pos = 0
    while pos < body.size:
        heads.append(pos)
        pos += 16 + int(body[pos + 8:pos + 12].view("<u4")[0])
    sec_bytes = np.array(heads)[:, None] + np.arange(4)
    seconds = body[sec_bytes].view("<u4")[:, 0]
    tiles = [image[:24]]
    for i in range(copies):
        tile = body.copy()
        tile[sec_bytes] = (seconds + i * span).astype("<u4")[:, None].view(
            np.uint8
        )
        tiles.append(tile.tobytes())
    return b"".join(tiles)


def _peak_bytes(outbound, inbound) -> int:
    detect_from_pcaps_fast(outbound, inbound)  # imports and first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        result, _ = detect_from_pcaps_fast(outbound, inbound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.records
    return peak


def test_peak_memory_is_flat_in_capture_length(tmp_path):
    trace = generate_packet_trace(
        SITE_PROFILES["unc"], seed=1, duration=float(SECONDS)
    )
    peaks = []
    for copies in (1, COPIES):
        paths = []
        for direction, packets in (("out", trace.outbound), ("in", trace.inbound)):
            image = _tiled(packets_to_pcap_bytes(packets), copies, SECONDS)
            path = tmp_path / f"{direction}{copies}.pcap"
            path.write_bytes(image)
            paths.append(path)
        # Even the short capture fills whole blocks.
        assert min(p.stat().st_size for p in paths) > DEFAULT_BLOCK_BYTES
        peaks.append(_peak_bytes(*paths))
    short, long = peaks
    assert long - short < 1 << 20, f"peak {short} B -> {long} B"
