"""Attack substrate: SYN flooding sources, temporal patterns, source
spoofing, and TFN-style DDoS campaign coordination (Section 4.2)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "ddos": (
        "MIN_PROTECTED_RATE", "MIN_UNPROTECTED_RATE",
        "TYPICAL_ATTACK_DURATION", "DDoSCampaign", "Slave",
    ),
    "flooder": ("FloodSource",),
    "patterns": (
        "ConstantRate", "PulseTrainRate", "RampRate", "RatePattern",
        "SquareWaveRate",
    ),
    "spoofing": (
        "FixedAddressSpoofer", "RandomBogonSpoofer", "RandomUniformSpoofer",
        "Spoofer", "SubnetRandomSpoofer",
    ),
})
