"""Prometheus text exposition format, rendered.

The proxy and the metrics server serve ``GET /metrics`` in this format, so
a real Prometheus could scrape them.  Nothing in the product parses it
back: in-process registries reach the store through the scraper's local
targets, other processes through ``POST /api/v1/ingest``.
"""

from __future__ import annotations

from .registry import MetricPoint, Registry


def render_lines(points: list[MetricPoint] | Registry):
    """Yield exposition lines (each ``\\n``-terminated) one point at a time.

    The streaming form lets ``/metrics`` handlers build their response
    buffer incrementally instead of materializing every line up front.
    """
    if isinstance(points, Registry):
        points = points.collect()
    for point in points:
        if point.labels:
            rendered = ",".join(
                f'{name}="{_escape(value)}"' for name, value in sorted(point.labels.items())
            )
            yield f"{point.name}{{{rendered}}} {_format_value(point.value)}\n"
        else:
            yield f"{point.name} {_format_value(point.value)}\n"


def render(points: list[MetricPoint] | Registry) -> str:
    """Render points (or a whole registry) to exposition text."""
    return "".join(render_lines(points))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
