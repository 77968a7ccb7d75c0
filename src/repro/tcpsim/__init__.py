"""Discrete-event TCP/network simulator substrate.

Implements the protocol machinery the paper's threat model rests on:
the Figure 1 handshake state machine, the victim's finite backlog of
half-open connections with the 75 s timeout, delay/loss links, and a
victim-network assembly that measures service denial under flood — the
substrate on which the stateful baseline defenses run.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "backlog": (
        "BACKLOG_TIMEOUT", "BacklogQueue", "ConnectionKey",
        "HalfOpenConnection",
    ),
    "endpoint": (
        "ClientEndpoint", "RstResponder", "ServerEndpoint", "TCPState",
    ),
    "engine": ("EventScheduler", "ScheduledEvent", "SimulationError"),
    "link": ("Link",),
    "network": ("VictimExperimentResult", "VictimNetwork"),
})
