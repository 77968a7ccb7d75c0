"""State the fastpath carries from one record block to the next.

A scan folds each block into per-period lane counts, class totals and
a running max of the capture's timestamps, and drops the block.  These
captures put the carried state where a block boundary could break it —
a period split across blocks, a block that starts below the running
max, captures periods apart, a block of undecodable records only, and
a capture with no counted packets — and compare the fastpath with the
object pipeline at block sizes from one record up to the whole file.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.fastpath.columns import ColumnarPcapReader
from repro.packet.packet import make_syn, make_syn_ack
from repro.pcap.writer import PcapWriter

from ._oracle import assert_capture_equivalent, assert_detection_identical

#: Bytes of one record of a 54-byte handshake frame.
RECORD = 16 + 54

#: A 42-byte ARP frame: no IPv4 header, so the record is skipped.
ARP = bytes(12) + b"\x08\x06" + bytes(28)


def _image(records) -> bytes:
    """A pcap image of ``(timestamp, wire bytes)`` records."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for timestamp, wire in records:
        writer.write_raw(timestamp, wire)
    return buffer.getvalue()


def _syns(stamps):
    return [
        (t, make_syn(t, "152.2.1.1", "10.0.0.1", seq=i).encode_frame())
        for i, t in enumerate(stamps)
    ]


def _synacks(stamps):
    return [
        (t, make_syn_ack(t, "10.0.0.1", "152.2.1.1", seq=i).encode_frame())
        for i, t in enumerate(stamps)
    ]


def _block_sizes(*images: bytes):
    """One record, a few records, an unaligned size, and each whole
    file."""
    return (16, RECORD, 3 * RECORD, 997) + tuple(len(i) for i in images)


def _assert_identical(outbound: bytes, inbound: bytes):
    for block_bytes in _block_sizes(outbound, inbound):
        assert_capture_equivalent(outbound, block_bytes=block_bytes)
        assert_capture_equivalent(inbound, block_bytes=block_bytes)
        assert_detection_identical(outbound, inbound, block_bytes=block_bytes)


def _block_stamps(image: bytes, block_bytes: int):
    """Each block's timestamps, as the reader yields them."""
    reader = ColumnarPcapReader.from_bytes(image)
    return [block.timestamps.copy() for block in reader.iter_blocks(
        block_bytes=block_bytes
    )]


def test_period_straddles_blocks():
    # Two SYNs a second across five 20 s boundaries; at three records
    # per block, a boundary falls inside a block and between blocks.
    stamps = np.arange(0.0, 100.0, 0.5).tolist()
    outbound = _image(_syns(stamps))
    inbound = _image(_synacks([t + 0.25 for t in stamps[::3]]))
    blocks = _block_stamps(outbound, 3 * RECORD)
    bounds = (20.0, 40.0, 60.0, 80.0)
    assert any(b[0] < t <= b[-1] for b in blocks for t in bounds)
    assert any(
        b[-1] < t <= nxt[0] for b, nxt in zip(blocks, blocks[1:]) for t in bounds
    )
    _assert_identical(outbound, inbound)


def test_block_starts_below_the_carried_running_max():
    # A SYN stamped 65 s arrives among ones stamped 30-60 s: the blocks
    # after it start below the running max, and every later SYN before
    # 65 s counts toward the period 65 s is in.
    stamps = (
        list(range(0, 30)) + [65.0] + list(range(30, 60)) + [59.5, 61.0]
        + list(range(66, 100))
    )
    outbound = _image(_syns([float(t) for t in stamps]))
    inbound = _image(_synacks([float(t) + 0.5 for t in range(0, 100, 2)]))
    blocks = _block_stamps(outbound, 3 * RECORD)
    running = np.maximum.accumulate(np.concatenate(blocks))
    starts = np.cumsum([0] + [b.size for b in blocks[:-1]])
    assert any(
        b[0] < running[start - 1] for b, start in zip(blocks[1:], starts[1:])
    )
    _assert_identical(outbound, inbound)


@pytest.mark.parametrize("ahead", ["outbound", "inbound"])
def test_one_capture_runs_periods_ahead(ahead):
    # One capture ends before the other starts, 15 periods later: the
    # later capture alone sizes the periods, and the earlier one's
    # counts sit in periods the later one never reaches.
    early = [float(t) for t in range(0, 60)]
    late = [300.0 + t for t in range(0, 60)]
    out_stamps, in_stamps = (late, early) if ahead == "outbound" else (
        early, late
    )
    _assert_identical(
        _image(_syns(out_stamps)), _image(_synacks(in_stamps))
    )


def test_block_of_only_skipped_records():
    # Thirty undecodable records stamped far ahead sit between SYNs.
    # They never reach the sniffers, so they must move neither the
    # running max nor the period count, even as a whole block.
    syns = _syns([float(t) for t in range(0, 80)])
    arps = [(5000.0 + t, ARP) for t in range(30)]
    outbound = _image(syns[:40] + arps + syns[40:])
    inbound = _image(_synacks([float(t) + 0.5 for t in range(0, 80, 4)]))
    arp_record = 16 + len(ARP)
    blocks = _block_stamps(outbound, 3 * arp_record)
    assert any((b >= 5000.0).all() for b in blocks)
    _assert_identical(outbound, inbound)


def test_capture_without_lane_packets():
    # Outbound carries only SYN/ACKs and inbound only SYNs: both
    # counted lanes are empty, yet the timestamps still set the periods.
    outbound = _image(_synacks([float(t) for t in range(0, 90, 3)]))
    inbound = _image(_syns([float(t) for t in range(10, 130, 3)]))
    _assert_identical(outbound, inbound)
