"""Columnar fast path: batched parse → classify → count pipeline.

The object pipeline walks ~5 µs/packet through ``Packet`` objects; this
package parses ~1 MiB pcap record blocks straight into numpy columns
(timestamps, capture lengths, class codes), runs the paper's 3-step
classification as vectorized passes over the header columns, folds
each block into per-period (SYN, SYN/ACK) counts and drops it, and
feeds :class:`~repro.core.syndog.SynDog` those count deltas —
downstream normalization, CUSUM, TSDB series, alerts and the
per-period profiler stage are untouched.

The object pipeline is retained permanently as the *differential
oracle*: per-period counts, classifier rejection/quarantine statistics
and detection results are byte-identical between the two paths on every
scenario, including fault-injected captures
(``tests/fastpath/test_differential.py`` pins the contract down).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "columns": ("DEFAULT_BLOCK_BYTES", "ColumnarPcapReader", "RecordBlock"),
    "classify": (
        "CLASS_FIN", "CLASS_FRAGMENT", "CLASS_NON_TCP_PROTOCOL", "CLASS_RST",
        "CLASS_SKIP", "CLASS_SYN", "CLASS_SYN_ACK", "CLASS_TCP_OTHER",
        "CLASS_TRUNCATED_FLAGS", "classify_block",
    ),
    "pipeline": (
        "CaptureSummary", "counts_from_pcaps_fast",
        "detect_from_pcaps_fast", "detect_from_sources", "scan_capture",
    ),
})
