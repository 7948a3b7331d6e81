"""Metrics substrate: Prometheus + cAdvisor stand-ins.

Time-series store, mini query language, instrumentation registry, text
exposition, pull-based scraper, resource sampler, HTTP metrics server, and
the provider interface the Bifrost engine queries.
"""

from .aggregate import aggregate_cache_info
from .cadvisor import CpuMeter, ResourceSampler, process_cpu_seconds, process_rss_bytes
from .compile import compile_query
from .exposition import parse as parse_exposition
from .exposition import parse_tolerant as parse_exposition_tolerant
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
    evaluate,
    evaluate_scalar,
    layout_cache_info,
    parse,
)
from .registry import Counter, Gauge, Histogram, MetricPoint, Registry
from .scraper import Scraper, ScrapeTarget
from .series import Sample, SeriesKey, TimeSeries
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
    "parse_exposition",
    "parse_exposition_tolerant",
    "planner_for",
    "process_cpu_seconds",
    "process_rss_bytes",
    "ProviderError",
    "QueryError",
    "Registry",
    "render_exposition",
    "render_exposition_lines",
    "ResourceSampler",
    "Sample",
    "Scraper",
    "ScrapeTarget",
    "SeriesKey",
    "StaticProvider",
    "TimeSeries",
    "VectorSample",
]
