"""Trace substrate: arrival processes, the SYN↔SYN/ACK handshake model,
calibrated site profiles for the paper's four trace sets (Table 1),
synthetic generation at packet and count resolution, attack mixing, and
trace statistics/persistence."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "arrival": (
        "ArrivalProcess", "MMPPArrivals", "ParetoOnOffArrivals",
        "PoissonArrivals", "diurnal_modulation", "flat_modulation",
    ),
    "events": ("CountTrace", "PacketTrace", "TraceMetadata"),
    "extended": (
        "ConnectionLifetimeModel", "ExtendedCountTrace",
        "generate_extended_count_trace", "mix_flood_into_extended",
    ),
    "flashcrowd": ("FlashCrowd", "mix_flash_crowd_into_counts"),
    "handshake": (
        "CongestionEpisodeModel", "HandshakeEvent", "HandshakeModel",
    ),
    "io": (
        "load_count_trace", "load_packet_trace_jsonl", "save_count_trace",
        "save_packet_trace_jsonl",
    ),
    "mixer": (
        "AttackWindow", "mix_flood_into_counts", "mix_flood_into_packets",
    ),
    "profiles": (
        "AUCKLAND", "HARVARD", "LBL", "SITE_PROFILES", "UNC", "SiteProfile",
        "get_profile",
    ),
    "stats": (
        "TraceStatistics", "index_of_dispersion", "pearson_correlation",
        "per_bin_series", "summarize_counts", "variance_time_hurst",
    ),
    "validation": ("Finding", "Severity", "validate_count_trace"),
    "synthetic": (
        "DEFAULT_OBSERVATION_PERIOD", "AddressPlan", "generate_count_trace",
        "generate_packet_trace",
    ),
})
