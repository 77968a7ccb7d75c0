"""Source localization: the alternative to expensive IP traceback that
SYN-dog's first-mile placement buys (Section 4.2.3)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "ppm": (
        "MARKING_PROBABILITY", "AttackPath", "EdgeMark", "PPMCollector",
        "expected_packets_for_full_path", "mark_along_path",
    ),
    "locator": (
        "HostInventory", "LocalizationReport", "LocatedHost", "SourceLocator",
    ),
})
