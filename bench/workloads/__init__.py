"""The four workloads, by name (imports ``repro``; keep out of pure tests)."""

from __future__ import annotations

from .base import Workload


def registry() -> dict[str, type[Workload]]:
    from .enact_fanout import EnactFanout
    from .metrics_ingest_query import MetricsIngestQuery
    from .proxy_active_small import ProxyActiveSmall
    from .proxy_stream_large import ProxyStreamLarge

    classes = (ProxyActiveSmall, ProxyStreamLarge, EnactFanout, MetricsIngestQuery)
    return {cls.name: cls for cls in classes}
