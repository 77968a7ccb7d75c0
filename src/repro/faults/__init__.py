"""Deterministic fault injection for the detection path.

The paper's operating regime *is* network misbehaviour — bursty loss,
retransmission, flooding — so a reproduction that only runs on clean
inputs has not reproduced the hard part.  This package provides the
chaos half of the robustness story:

``models``
    The composable fault primitives, each a pure function of an
    explicit ``random.Random`` — packet-level (drop bursts,
    duplication, reordering, frame truncation, header corruption),
    timing-level (clock skew on period boundaries), and
    component-level (sniffer counter desync, missing period reports,
    agent crash, mid-file pcap truncation).
``schedule``
    :class:`FaultSchedule` — a named, serializable composition of
    :class:`FaultSpec` entries with activity windows, plus the built-in
    schedules the CLI and CI exercise.
``injector``
    :class:`FaultInjector` — applies a schedule to count traces,
    packet streams and wire bytes under one seed, counting every
    injected fault into ``faults_injected_total{kind=...}``.

Everything is seeded and replayable: the same (schedule, seed) pair
produces the same faults byte for byte, which is what makes a chaos
run a regression test instead of a dice roll.  The consuming campaign
logic (baseline vs degraded comparison, envelope assertions) lives in
:mod:`repro.experiments.chaos`.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "injector": (
        "CrashEvent", "FaultInjector", "InjectionPlan", "PeriodAction",
    ),
    "models": (
        "corrupt_header", "drop_burst_stream", "duplicate_stream",
        "reorder_stream", "skew_timestamp", "thin_count", "truncate_frame",
        "truncate_pcap_image",
    ),
    "schedule": (
        "BUILTIN_SCHEDULES", "DEFAULT_SCHEDULE", "FaultKind", "FaultSchedule",
        "FaultSpec", "get_schedule",
    ),
})
