"""Trace persistence in simple text formats.

Count traces are the experiment currency, so they get a first-class
CSV-ish format (one period per line) plus a JSON header carrying the
Table 1 metadata.  Packet traces persist through :mod:`repro.pcap`; a
JSONL convenience codec is provided here for debugging and diffing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, List, Tuple, Union

from .events import CountTrace, PacketTrace, TraceMetadata

if TYPE_CHECKING:
    from ..packet.packet import Packet

__all__ = [
    "save_count_trace",
    "load_count_trace",
    "save_packet_trace_jsonl",
    "load_packet_trace_jsonl",
]

_FORMAT_VERSION = 1

#: Header keys :func:`load_count_trace` cannot do without.
_REQUIRED_HEADER_KEYS = ("name", "duration", "bidirectional", "period")


def save_count_trace(trace: CountTrace, path: Union[str, Path]) -> None:
    """Write a count trace: a ``#``-prefixed JSON header line, then one
    ``period_index,syn,synack`` line per observation period."""
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "name": trace.metadata.name,
        "duration": trace.metadata.duration,
        "bidirectional": trace.metadata.bidirectional,
        "description": trace.metadata.description,
        "site": trace.metadata.site,
        "seed": trace.metadata.seed,
        "period": trace.period,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# " + json.dumps(header) + "\n")
        handle.write("# period_index,syn,synack\n")
        for index, (syn, synack) in enumerate(trace.counts):
            handle.write(f"{index},{syn},{synack}\n")


def load_count_trace(path: Union[str, Path]) -> CountTrace:
    """Read a count trace written by :func:`save_count_trace`.

    Raises ValueError on any malformed input: a bad count line, a
    missing or foreign-version header, a header without one of
    ``name``/``duration``/``bidirectional``/``period``, a ``period``
    that is not a finite number > 0, a ``duration`` that is not a
    finite number >= 0, or no count line at all (a trace with no
    observation period gives the detector nothing to decide on)."""
    path = Path(path)
    header = None
    counts: List[Tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if header is None and body.startswith("{"):
                    header = json.loads(body)
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"malformed count line: {line!r}")
            _index, syn, synack = (int(part) for part in parts)
            counts.append((syn, synack))
    if header is None:
        raise ValueError(f"{path} has no JSON header line")
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version: {header.get('format_version')}"
        )
    missing = [key for key in _REQUIRED_HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    period = _header_number(header, "period")
    # CountTrace itself refuses a period that is not finite and > 0.
    duration = _header_number(header, "duration")
    if not (0.0 <= duration < math.inf):
        raise ValueError(f"duration must be finite and >= 0: {duration!r}")
    if not counts:
        raise ValueError("no count lines: the trace has no observation periods")
    metadata = TraceMetadata(
        name=header["name"],
        duration=duration,
        bidirectional=header["bidirectional"],
        description=header.get("description", ""),
        site=header.get("site", ""),
        seed=header.get("seed"),
    )
    return CountTrace(metadata=metadata, period=period, counts=tuple(counts))


def _header_number(header: dict, key: str) -> float:
    """``header[key]`` if it is an int or float (not a bool)."""
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number: {value!r}")
    return value


def _packet_to_record(packet: Packet, direction: str) -> dict:
    segment = packet.tcp
    record = {
        "t": packet.timestamp,
        "dir": direction,
        "src": str(packet.src_ip),
        "dst": str(packet.dst_ip),
        "smac": str(packet.src_mac),
        "dmac": str(packet.dst_mac),
    }
    if segment is not None:
        record.update(
            sport=segment.src_port,
            dport=segment.dst_port,
            seq=segment.seq,
            ack=segment.ack,
            flags=int(segment.flags),
        )
    return record


def save_packet_trace_jsonl(trace: PacketTrace, path: Union[str, Path]) -> None:
    """Write a packet trace as JSONL: header record first, then one
    record per packet (TCP fields only; the wire-accurate format is
    pcap)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format_version": _FORMAT_VERSION,
            "name": trace.metadata.name,
            "duration": trace.metadata.duration,
            "bidirectional": trace.metadata.bidirectional,
            "description": trace.metadata.description,
            "site": trace.metadata.site,
            "seed": trace.metadata.seed,
        }
        handle.write(json.dumps({"header": header}) + "\n")
        for direction, stream in (("out", trace.outbound), ("in", trace.inbound)):
            for packet in stream:
                handle.write(json.dumps(_packet_to_record(packet, direction)) + "\n")


def load_packet_trace_jsonl(path: Union[str, Path]) -> PacketTrace:
    """Read a JSONL packet trace written by :func:`save_packet_trace_jsonl`.

    Only SYN and SYN/ACK records are reconstructed as typed packets
    (they are the only kinds the generators emit); anything else raises.
    """
    path = Path(path)
    header = None
    from ..packet.addresses import MACAddress
    from ..packet.packet import make_syn, make_syn_ack
    from ..packet.tcp import TCPFlags

    outbound: List[Packet] = []
    inbound: List[Packet] = []

    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "header" in record:
                header = record["header"]
                continue
            flags = TCPFlags(record["flags"])
            maker = (
                make_syn_ack
                if (flags & TCPFlags.SYN and flags & TCPFlags.ACK)
                else make_syn
            )
            if not flags & TCPFlags.SYN:
                raise ValueError(f"unsupported packet record: {record}")
            packet = maker(
                timestamp=record["t"],
                src=record["src"],
                dst=record["dst"],
                src_port=record["sport"],
                dst_port=record["dport"],
                seq=record["seq"],
                src_mac=MACAddress.parse(record["smac"]),
                dst_mac=MACAddress.parse(record["dmac"]),
                **({"ack": record["ack"]} if maker is make_syn_ack else {}),
            )
            if record["dir"] == "out":
                outbound.append(packet)
            else:
                inbound.append(packet)
    if header is None:
        raise ValueError(f"{path} has no header record")
    metadata = TraceMetadata(
        name=header["name"],
        duration=header["duration"],
        bidirectional=header["bidirectional"],
        description=header.get("description", ""),
        site=header.get("site", ""),
        seed=header.get("seed"),
    )
    return PacketTrace(
        metadata=metadata,
        outbound=tuple(sorted(outbound, key=lambda p: p.timestamp)),
        inbound=tuple(sorted(inbound, key=lambda p: p.timestamp)),
    )
