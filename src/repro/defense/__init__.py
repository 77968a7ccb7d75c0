"""Victim-side and source-side defense baselines the paper contrasts
with SYN-dog: SYN cookies [3], Synkill [24], SYN proxying [6, 19], and
RFC 2267 ingress filtering [11] — plus the closed-loop response engine
that drives them from firing alerts (:mod:`repro.defense.response`)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "ingress": ("IngressFilter", "SpoofObservation"),
    "ratelimit": ("EgressSynLimiter", "TokenBucket"),
    "proxy": ("SynProxy",),
    "response": (
        "ActionFailure", "ActionSpec", "FlakyActuator", "Playbook",
        "PlaybookRule", "ResponseEngine", "RouterActuator", "VictimActuator",
        "parse_yaml_lite", "timeline_from_events",
    ),
    "syncookies": ("SynCookieServer", "encode_cookie", "validate_cookie"),
    "synkill": ("AddressClass", "SynkillMonitor"),
})
