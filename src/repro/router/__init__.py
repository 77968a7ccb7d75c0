"""Leaf-router integration: the router model of Figure 2, the deployable
SYN-dog agent with its alarm-time response hooks, and the federation
view across a fleet of agents."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "agent": ("AlarmEvent", "SynDogAgent"),
    "fleet": (
        "Federation", "FederationFeedError", "FederationIncident",
        "MemberAlarm",
    ),
    "leafrouter": ("Interface", "LeafRouter"),
})
