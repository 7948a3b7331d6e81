"""Metrics substrate: Prometheus + cAdvisor stand-ins.

Time-series store, mini query language, instrumentation registry, text
exposition rendering, a scraper of in-process registries, CPU meter, HTTP
metrics server, and the provider interface the Bifrost engine queries.
"""

from .aggregate import aggregate_cache_info
from .cadvisor import CpuMeter, process_cpu_seconds
from .exposition import render as render_exposition
from .exposition import render_lines as render_exposition_lines
from .plan import planner_for
from .provider import (
    HealthProvider,
    HttpPrometheusProvider,
    LocalPrometheusProvider,
    MetricsProvider,
    ProviderError,
    StaticProvider,
)
from .query import (
    QueryError,
    VectorSample,
    compile_query,
    evaluate,
    evaluate_scalar,
    layout_cache_info,
    parse,
)
from .registry import Counter, Gauge, Histogram, MetricPoint, Registry
from .scraper import Scraper
from .series import SeriesKey, TimeSeries
from .server import MetricsServer
from .store import LabelMatcher, MetricStore

__all__ = [
    "aggregate_cache_info",
    "compile_query",
    "Counter",
    "CpuMeter",
    "evaluate",
    "evaluate_scalar",
    "Gauge",
    "HealthProvider",
    "Histogram",
    "HttpPrometheusProvider",
    "LabelMatcher",
    "layout_cache_info",
    "LocalPrometheusProvider",
    "MetricPoint",
    "MetricsProvider",
    "MetricsServer",
    "MetricStore",
    "parse",
    "planner_for",
    "process_cpu_seconds",
    "ProviderError",
    "QueryError",
    "Registry",
    "render_exposition",
    "render_exposition_lines",
    "Scraper",
    "SeriesKey",
    "StaticProvider",
    "TimeSeries",
    "VectorSample",
]
