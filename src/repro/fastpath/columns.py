"""Columnar pcap scanner: record blocks → header rows and columns.

:class:`ColumnarPcapReader` is the batched twin of
:class:`~repro.pcap.reader.PcapReader`.  It walks the record headers of
a block in *runs* — consecutive records sharing one capture length.  A
run's length is found by reading a few headers in Python, then by
comparing growing windows (16, 128, 1024, … records) of a strided
``incl_len`` view, each at most 8x the run so far, so the walk's work
is linear in the block's records.  A block costs one Python iteration
per run: O(1) for a uniform trace (the common case: every handshake
frame is 54 bytes), one per record when the length changes every
record.

Every block is read into one buffer that the reader reuses: the
partial record a read leaves at its end moves to the front, and the
next read lands after it.  Blocks are ~1 MiB, so a block and the
columns made from it stay in a core's L2 while every pass over them
runs.  Each block becomes one ``(n, ROW_BYTES)`` header-row matrix: a
zero-copy strided view of that buffer when the block is one run, one
row gather otherwise.  Timestamps and every field the classifier reads
are columns of it; capture lengths come from the run table.

The error contract is byte-for-byte the object reader's:

* malformed global header / unsupported linktype →
  :class:`PcapFormatError` from the constructor;
* ``incl_len > snaplen + 65536`` → :class:`PcapFormatError`
  (``implausible capture length``) raised even in tolerant mode, checked
  *before* body completeness, exactly like the streaming reader;
* a stream ending mid-record → :class:`PcapTruncatedError` carrying the
  same message, ``byte_offset`` and ``records_read`` the object reader
  would report — raised in strict mode, stashed on :attr:`truncation`
  in tolerant mode.

The differential suite asserts all of this against ``PcapReader`` on
both well-formed and fault-injected images.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..pcap.format import (
    GLOBAL_HEADER_LENGTH,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    RECORD_HEADER_LENGTH,
    GlobalHeader,
    PcapFormatError,
    PcapTruncatedError,
)

__all__ = [
    "DEFAULT_BLOCK_BYTES", "ROW_BYTES", "RecordBlock", "ColumnarPcapReader",
    "row_field",
]

#: Bytes of each record in a header row: the 16-byte record header and
#: the first 48 captured bytes, which hold the Ethernet, IPv4 and TCP
#: fields up to the TCP flag byte.
ROW_BYTES = 64

#: Headers of a run read one at a time in Python before the walk
#: switches to comparing windows of an ``incl_len`` view.  A run that
#: ends within them costs no numpy call: galloping from the first
#: header scans a capture whose length changes every record about 5x
#: slower, and a uniform capture no faster.
_PROBE_RECORDS = 4

#: Bytes of capture data read per block.  Large enough that the
#: per-block Python overhead amortizes to nothing; small enough that
#: the block and the columns made from it stay in a core's L2 (2 MiB on
#: the Xeon this was tuned on, where 4 MiB blocks made the same pass
#: about 1.3x slower).
DEFAULT_BLOCK_BYTES = 1 << 20


@dataclass
class RecordBlock:
    """One parsed block as columns over its records.

    ``rows`` is the ``(n, ROW_BYTES)`` uint8 header-row matrix: row *i*
    is record *i*'s 16-byte record header followed by its first 48
    captured bytes, so the timestamps and every field the classifier
    reads are columns of it.  Row bytes past a record's captured length
    belong to the next record (or are zero padding at the end of the
    block); every use of them is masked by ``caplens``.  ``timestamps``
    are float64 seconds computed exactly as ``RecordHeader.timestamp``
    does.  ``rows`` may view the reader's buffer, which the next block
    overwrites: it is valid only until the iterator moves on.
    """

    rows: np.ndarray        # uint8 (n, ROW_BYTES), a view when one run
    caplens: np.ndarray     # int64, captured bytes per record
    timestamps: np.ndarray  # float64 seconds

    def __len__(self) -> int:
        return int(self.caplens.size)


def row_field(rows: np.ndarray, column: int, dtype: np.dtype) -> np.ndarray:
    """The *dtype* field at byte *column* of every row, as a view; byte
    order comes from *dtype*.  Rows need only a contiguous last axis,
    which ``.view`` accepts from NumPy 1.23 on."""
    return rows[:, column:column + dtype.itemsize].view(dtype)[:, 0]


class ColumnarPcapReader:
    """Streaming block-columnar pcap reader (the fastpath ingress).

    Mirrors :class:`~repro.pcap.reader.PcapReader`'s running totals so
    callers can audit a pass the same way:

    ``records_read``
        Complete records parsed so far.
    ``truncation``
        The :class:`PcapTruncatedError` encountered in tolerant mode,
        or None when the stream ended cleanly (so far).
    """

    def __init__(self, stream: BinaryIO, obs: Optional[Any] = None) -> None:
        self._stream = stream
        self._owns_stream = False
        header_bytes = stream.read(GLOBAL_HEADER_LENGTH)
        self.header = GlobalHeader.decode(header_bytes)
        if self.header.network not in (LINKTYPE_ETHERNET, LINKTYPE_RAW):
            raise PcapFormatError(
                f"unsupported linktype: {self.header.network}"
            )
        self.records_read = 0
        self.truncation: Optional[PcapTruncatedError] = None
        self._base = len(header_bytes)  # file offset of the unparsed tail
        # Bind-once profiler stage (repro.obs hot-path contract); one
        # begin/end pair per *block*, not per record.
        self._prof_parse = (
            obs.profiler.stage("fastpath.parse", sample_every=1)
            if obs is not None and obs.profiler.enabled
            else None
        )

    @classmethod
    def open(
        cls, path: Union[str, Path], obs: Optional[Any] = None
    ) -> "ColumnarPcapReader":
        stream = Path(path).open("rb")
        try:
            reader = cls(stream, obs=obs)
        except Exception:
            stream.close()
            raise
        reader._owns_stream = True
        return reader

    @classmethod
    def from_bytes(
        cls, image: bytes, obs: Optional[Any] = None
    ) -> "ColumnarPcapReader":
        return cls(io.BytesIO(image), obs=obs)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "ColumnarPcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Block parsing
    # ------------------------------------------------------------------
    def iter_blocks(
        self,
        strict: bool = True,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> Iterator[RecordBlock]:
        """Yield :class:`RecordBlock`\\ s until EOF (or truncation in
        tolerant mode).  Results are invariant to ``block_bytes``: a
        record spanning two reads is carried into the next block, and
        the boundary-split regression tests pin counts and statistics
        down at block sizes from one record to the whole file.  Each
        block's ``rows`` are valid only until the next block is read.
        """
        block_bytes = max(int(block_bytes), RECORD_HEADER_LENGTH)
        cap_limit = self.header.snaplen + 65536
        u4 = np.dtype(self.header.byte_order + "u4")
        unpack_incl = struct.Struct(self.header.byte_order + "I").unpack_from
        divisor = self.header.timestamp_divisor
        prof = self._prof_parse
        # buf[pos:limit] is unparsed.  Before each read that tail moves
        # to the front of the one reused buffer, the read lands after it
        # and ROW_BYTES zero bytes follow: a row that starts at any
        # complete record header stays inside the buffer, and reads
        # zeros, not a previous block's bytes, past its end.  The buffer
        # grows only when a carried record and a read do not fit.
        buf = np.empty(block_bytes + ROW_BYTES, dtype=np.uint8)
        limit = pos = 0
        eof = False
        while True:
            if not eof:
                tail = limit - pos
                if tail + block_bytes + ROW_BYTES > buf.size:
                    buf = np.concatenate([buf[pos:limit], np.empty(
                        block_bytes + ROW_BYTES, dtype=np.uint8
                    )])
                elif tail and pos:
                    buf[:tail] = buf[pos:limit]  # numpy copies overlaps safely
                self._base += pos
                limit, pos = tail, 0
                got = self._stream.readinto(buf[tail:tail + block_bytes])
                if got:
                    limit = tail + got
                    buf[limit:limit + ROW_BYTES] = 0
                else:
                    eof = True
            token = None if prof is None else prof.begin()
            # Run-based header walk: each iteration accepts a maximal
            # run of complete records sharing one capture length.
            runs: List[Tuple[int, int]] = []  # (stride, count)
            first = pos
            while pos + RECORD_HEADER_LENGTH <= limit:
                incl = unpack_incl(buf, pos + 8)[0]
                if incl > cap_limit:
                    raise PcapFormatError(
                        f"implausible capture length {incl}"
                    )
                stride = RECORD_HEADER_LENGTH + incl
                fits = (limit - pos) // stride
                if fits == 0:
                    break  # body incomplete in this buffer
                count = 1
                probe = min(fits, _PROBE_RECORDS)
                while (
                    count < probe
                    and unpack_incl(buf, pos + count * stride + 8)[0] == incl
                ):
                    count += 1
                if count == _PROBE_RECORDS:
                    count = _gallop(
                        buf, pos + 8, stride, fits, count, incl, u4
                    )
                runs.append((stride, count))
                self.records_read += count
                pos += stride * count
            if runs:
                if len(runs) == 1:
                    stride, count = runs[0]
                    rows = np.ndarray(
                        (count, ROW_BYTES), dtype=np.uint8, buffer=buf,
                        offset=first, strides=(stride, 1),
                    )
                    caplens = np.full(
                        count, stride - RECORD_HEADER_LENGTH, dtype=np.int64
                    )
                else:
                    strides = np.repeat(*np.array(runs, dtype=np.int64).T)
                    # Row i of windows is buf[i:i + ROW_BYTES].
                    windows = np.ndarray(
                        (limit, ROW_BYTES), dtype=np.uint8, buffer=buf,
                        strides=(1, 1),
                    )
                    rows = windows[first + np.cumsum(strides) - strides]
                    caplens = strides - RECORD_HEADER_LENGTH
                timestamps = row_field(rows, 4, u4).astype(np.float64)
                timestamps /= divisor
                timestamps += row_field(rows, 0, u4)  # sec + frac / divisor
                block = RecordBlock(
                    rows=rows, caplens=caplens, timestamps=timestamps
                )
                if prof is not None:
                    prof.end(
                        token, packets=len(block), nbytes=int(caplens.sum())
                    )
                yield block
            if eof:
                avail = limit - pos
                if avail == 0:
                    return  # clean EOF at a record boundary
                if avail < RECORD_HEADER_LENGTH:
                    error = PcapTruncatedError(
                        f"record header cut short at {avail} bytes",
                        byte_offset=self._base + pos,
                        records_read=self.records_read,
                    )
                else:
                    incl = unpack_incl(buf, pos + 8)[0]
                    error = PcapTruncatedError(
                        f"record body cut short: "
                        f"{avail - RECORD_HEADER_LENGTH} of "
                        f"{incl} captured bytes",
                        byte_offset=self._base + pos,
                        records_read=self.records_read,
                    )
                if strict:
                    raise error
                self.truncation = error
                return


def _gallop(
    buf: np.ndarray,
    incl_at: int,
    stride: int,
    fits: int,
    count: int,
    incl: int,
    u4: np.dtype,
) -> int:
    """Length of the run of records sharing capture length *incl*, given
    that the first *count* of the *fits* candidates do: compare windows
    of 16, 128, 1024, … candidates of a strided ``incl_len`` view, so
    the work is linear in the run's length."""
    incls = np.ndarray(
        (fits,), dtype=u4, buffer=buf, offset=incl_at, strides=(stride,)
    )
    width = 16
    while count < fits:
        end = min(count + width, fits)
        mismatch = incls[count:end] != incl
        if mismatch.any():
            return count + int(mismatch.argmax())
        count = end
        width *= 8
    return count
