"""Fixture pieces shared by more than one workload."""

from __future__ import annotations

from repro.clock import Clock
from repro.metrics import MetricsServer, aggregate_cache_info, planner_for
from repro.proxy import BifrostProxy


class StepClock(Clock):
    """The metrics server's clock, stepped by the harness: one second per
    ingest round, so what a query sees depends on inputs, not on timing.

    It also decides how far the server's response memo and the plan-node
    memo can share work: both key on ``(now, generation)``, and under a
    real clock ``now`` differs on every call.
    """

    def __init__(self, start: float = 1000.0):
        self.t = start

    def now(self) -> float:
        return self.t

    async def sleep(self, seconds: float) -> None:
        raise RuntimeError("the benchmark's metrics server never sleeps")


def proxy_counters(proxy: BifrostProxy) -> dict[str, float]:
    """The proxy's cumulative shadow and sticky counters (``stats_snapshot``)."""
    stats = proxy.stats_snapshot()
    return {
        "shadow_sent": stats["shadow_sent"],
        "shadow_dropped": stats["shadow_dropped"],
        "sticky_evictions": stats["sticky_evictions"],
    }


def metrics_counters(server: MetricsServer) -> dict[str, float]:
    """Hit/miss tallies of the caches stacked on one query (``/healthz``)."""
    planner = planner_for(server.store)
    aggregates = aggregate_cache_info()
    return {
        "server_cache_hits": server.query_cache_hits,
        "server_cache_misses": server.query_cache_misses,
        "plan_node_hits": planner.node_hits,
        "plan_node_misses": planner.node_misses,
        "aggregate_hits": aggregates["hits"],
        "aggregate_fallbacks": aggregates["fallbacks"],
    }
