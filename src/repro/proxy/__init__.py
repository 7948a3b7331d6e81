"""Bifrost proxies: dynamic traffic routing for live testing.

One proxy per service; traffic-percentage, cookie, and header filters;
sticky sessions via proxy-issued UUID cookies; dark-launch traffic
duplication; and the engine-facing admin API.
"""

from .admin import HttpProxyController, LocalProxyController, ProxyUnreachable
from .filters import CLIENT_COOKIE, FilterChain, RoutingDecision
from .plan import EndpointRing, RoutingPlan, normalize_endpoints
from .server import BifrostProxy
from .shadow import Shadower
from .sticky import StickyStore

__all__ = [
    "BifrostProxy",
    "CLIENT_COOKIE",
    "EndpointRing",
    "FilterChain",
    "HttpProxyController",
    "LocalProxyController",
    "normalize_endpoints",
    "ProxyUnreachable",
    "RoutingDecision",
    "RoutingPlan",
    "Shadower",
    "StickyStore",
]
