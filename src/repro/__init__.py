"""SYN-dog: sniffing SYN flooding sources.

A complete reproduction of *SYN-dog: Sniffing SYN Flooding Sources*
(Haining Wang, Danlu Zhang, Kang G. Shin - ICDCS 2002): a stateless,
CUSUM-based detector of SYN flooding *sources*, installed at the leaf
routers that connect stub networks to the Internet.

Quickstart::

    from repro import SynDog
    dog = SynDog()                      # paper defaults: t0=20s, a=0.35, N=1.05
    for syn_count, synack_count in per_period_counts:
        record = dog.observe_period(syn_count, synack_count)
        if record.alarm:
            print(f"flooding source detected, y_n={record.statistic:.2f}")

Subpackages
-----------
``repro.core``
    The paper's contribution: sniffers, EWMA normalization,
    non-parametric CUSUM, parameter theory, baseline detectors.
``repro.packet`` / ``repro.pcap``
    Byte-accurate Ethernet/IPv4/TCP/UDP codecs, the TCP control-packet
    classifier, and a from-scratch libpcap reader/writer.
``repro.trace``
    Arrival processes (Poisson / self-similar / MMPP), the
    SYN<->SYN/ACK handshake model, calibrated site profiles for the
    paper's four traces, synthetic generation and attack mixing.
``repro.tcpsim``
    Discrete-event TCP substrate: handshake state machine, the victim's
    half-open backlog, links, and the service-denial experiment.
``repro.attack``
    Flooding sources, temporal patterns, spoofing strategies, DDoS
    campaign coordination.
``repro.defense``
    The stateful victim-side baselines (SYN cookies, Synkill, SYN
    proxy) and source-side ingress filtering.
``repro.router`` / ``repro.traceback``
    The leaf-router integration and MAC-based source localization.
``repro.experiments``
    The trace-driven harness regenerating every table and figure.
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 lazy exports: ``(__all__, __getattr__, __dir__)`` for the
    ``__init__`` of *package*.

    *exports* maps each submodule (relative to *package*) to the public
    names it defines.  A name's submodule is imported on its first
    access and the value is cached in the package globals, so later
    lookups never reach ``__getattr__``.  Any other name resolves as a
    submodule or subpackage (``repro.obs.tsdb``) if there is one, and
    raises ``AttributeError`` otherwise.  Importing a package therefore
    imports none of its submodules.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "core": (
        "DEFAULT_PARAMETERS", "TUNED_UNC_PARAMETERS", "DetectionRecord",
        "DetectionResult", "NonParametricCusum", "SynDog", "SynDogParameters",
    ),
    "router": ("LeafRouter", "SynDogAgent"),
    "trace": (
        "AUCKLAND", "HARVARD", "LBL", "UNC", "AttackWindow", "CountTrace",
        "PacketTrace", "SiteProfile", "generate_count_trace",
        "generate_packet_trace", "get_profile", "mix_flood_into_counts",
        "mix_flood_into_packets",
    ),
})
__all__.append("__version__")
