"""pcap reader: parse classic libpcap files back into
:class:`~repro.packet.packet.Packet` streams.

The reader is a generator — traces the size of the paper's (three hours
of an Internet access link) never need to be resident in memory, which
mirrors how the real SYN-dog processes an unbounded packet stream with
O(1) state.

Robustness contract: a malformed *global header* raises
:class:`PcapFormatError` immediately (nothing sensible follows it); a
stream ending *mid-record* raises :class:`PcapTruncatedError` carrying
the byte offset and the number of complete records salvaged — or, in
tolerant mode (``strict=False``, what the trace-tooling convenience
functions use), stops cleanly while stashing the error on
:attr:`PcapReader.truncation` so the loss is still visible.  Records
that fail to *decode* are counted in :attr:`PcapReader.skipped_records`
rather than silently dropped.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple, Union

from ..packet.packet import Packet
from .format import (
    GLOBAL_HEADER_LENGTH,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    RECORD_HEADER_LENGTH,
    GlobalHeader,
    PcapFormatError,
    PcapTruncatedError,
    RecordHeader,
)

__all__ = ["PcapReader", "read_pcap", "iter_pcap", "pcap_bytes_to_packets"]


class PcapReader:
    """Streaming pcap reader.

    Iterating yields ``(timestamp, wire_bytes)`` tuples via
    :meth:`iter_records`, or decoded packets via :meth:`iter_packets`.
    Running totals are kept on the reader itself so callers can audit
    what a pass over the file actually saw:

    ``records_read``
        Complete records returned so far.
    ``skipped_records``
        Records that failed to decode and were skipped
        (``iter_packets(skip_undecodable=True)``).
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
        self._offset = len(header_bytes)
        self.records_read = 0
        self.skipped_records = 0
        self.truncation: Optional[PcapTruncatedError] = None
        # Profiler stage handle, bound once (repro.obs hot-path
        # contract): None unless an Instrumentation bundle with a live
        # profiler is passed.
        self._prof_parse = (
            obs.profiler.stage("pcap.parse")
            if obs is not None and obs.profiler is not None
            else None
        )

    @classmethod
    def open(
        cls, path: Union[str, Path], obs: Optional[Any] = None
    ) -> "PcapReader":
        stream = Path(path).open("rb")
        try:
            reader = cls(stream, obs=obs)
        except Exception:
            stream.close()
            raise
        reader._owns_stream = True
        return reader

    def iter_records(self, strict: bool = True) -> Iterator[Tuple[float, bytes]]:
        """Yield (timestamp_seconds, captured_bytes) for every record.

        With ``strict=True`` (default) a stream that ends mid-record
        raises :class:`PcapTruncatedError`; with ``strict=False`` the
        iterator stops cleanly at the last complete record and the
        error is kept on :attr:`truncation` for inspection.
        """
        prof = self._prof_parse
        while True:
            # begin() is None on untimed iterations (and always in
            # cost-model mode); tokens on EOF/truncation paths are
            # simply dropped — only complete records are attributed.
            token = None if prof is None else prof.begin()
            record_offset = self._offset
            header_bytes = self._stream.read(RECORD_HEADER_LENGTH)
            if not header_bytes:
                return  # clean EOF at a record boundary
            self._offset += len(header_bytes)
            if len(header_bytes) < RECORD_HEADER_LENGTH:
                error = PcapTruncatedError(
                    f"record header cut short at {len(header_bytes)} bytes",
                    byte_offset=record_offset,
                    records_read=self.records_read,
                )
                if strict:
                    raise error
                self.truncation = error
                return
            record = RecordHeader.decode(header_bytes, self.header.byte_order)
            if record.incl_len > self.header.snaplen + 65536:
                raise PcapFormatError(
                    f"implausible capture length {record.incl_len}"
                )
            captured = self._stream.read(record.incl_len)
            self._offset += len(captured)
            if len(captured) < record.incl_len:
                error = PcapTruncatedError(
                    f"record body cut short: {len(captured)} of "
                    f"{record.incl_len} captured bytes",
                    byte_offset=record_offset,
                    records_read=self.records_read,
                )
                if strict:
                    raise error
                self.truncation = error
                return
            self.records_read += 1
            if prof is not None:
                prof.end(token, packets=1, nbytes=len(captured))
            yield record.timestamp(self.header.nanosecond), captured

    def iter_packets(
        self, skip_undecodable: bool = True, strict: bool = True
    ) -> Iterator[Packet]:
        """Yield decoded packets.

        Records that fail to decode (non-IPv4 frames, mangled headers)
        are skipped by default — and *counted* in
        :attr:`skipped_records`, so decode loss is never silent — or
        propagated with ``skip_undecodable=False``.  ``strict`` has
        :meth:`iter_records` truncation semantics.
        """
        ethernet = self.header.network == LINKTYPE_ETHERNET
        for timestamp, wire in self.iter_records(strict=strict):
            try:
                if ethernet:
                    yield Packet.decode_frame(wire, timestamp=timestamp)
                else:
                    yield Packet.decode_ip(wire, timestamp=timestamp)
            except ValueError:
                if not skip_undecodable:
                    raise
                self.skipped_records += 1

    def __iter__(self) -> Iterator[Packet]:
        return self.iter_packets()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_pcap(path: Union[str, Path]) -> List[Packet]:
    """Read an entire pcap file into a list of packets (tolerant of a
    truncated tail, as trace tooling conventionally is)."""
    with PcapReader.open(path) as reader:
        return list(reader.iter_packets(strict=False))


def iter_pcap(path: Union[str, Path]) -> Iterator[Packet]:
    """Stream packets from a pcap file (the file is closed at
    exhaustion; a truncated tail stops the stream cleanly)."""
    with PcapReader.open(path) as reader:
        yield from reader.iter_packets(strict=False)


def pcap_bytes_to_packets(image: bytes) -> List[Packet]:
    """Decode an in-memory pcap image into packets (tolerant mode)."""
    reader = PcapReader(io.BytesIO(image))
    return list(reader.iter_packets(strict=False))
