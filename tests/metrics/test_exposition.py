"""Unit tests for exposition-format rendering.

``parse_exposition`` is the test-side reference parser
(``exposition_reference.py``); the cases that call it on hand-written
text pin what the round trips rely on.
"""

import pytest

from repro.metrics import MetricPoint, Registry, render_exposition
from tests.metrics.exposition_reference import parse_exposition


def test_render_unlabelled_point():
    text = render_exposition([MetricPoint("up", {}, 1.0)])
    assert text == "up 1\n"


def test_render_labelled_point_sorts_labels():
    text = render_exposition([MetricPoint("m", {"b": "2", "a": "1"}, 3.5)])
    assert text == 'm{a="1",b="2"} 3.5\n'


def test_render_escapes_label_values():
    text = render_exposition([MetricPoint("m", {"q": 'say "hi"\\'}, 1.0)])
    assert text == 'm{q="say \\"hi\\"\\\\"} 1\n'
    parsed = parse_exposition(text)
    assert parsed[0].labels["q"] == 'say "hi"\\'


def test_render_registry_directly():
    registry = Registry()
    registry.counter("c").inc(2)
    assert render_exposition(registry) == "c 2\n"


def test_render_empty_is_empty_string():
    assert render_exposition([]) == ""


def test_parse_infinity_values():
    points = parse_exposition('b{le="+Inf"} 7\nneg -Inf\n')
    assert points[0].value == 7.0
    assert points[1].value == float("-inf")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("!!! not metrics !!!")


def test_round_trip_preserves_everything():
    original = [
        MetricPoint("http_requests_total", {"code": "200", "path": "/buy"}, 1234.0),
        MetricPoint("latency_sum", {}, 12.75),
        MetricPoint("latency_bucket", {"le": "+Inf"}, 40.0),
    ]
    parsed = parse_exposition(render_exposition(original))
    assert parsed == original


def test_render_lines_streams_equivalent_text():
    from repro.metrics.exposition import render_lines

    registry = Registry()
    counter = registry.counter("hits_total", label_names=("route",))
    counter.labels(route="/a").inc()
    counter.labels(route='/b "q"').inc(2)
    registry.gauge("temp").set(1.5)
    lines = list(render_lines(registry))
    assert all(line.endswith("\n") for line in lines)
    assert "".join(lines) == render_exposition(registry)


def test_render_lines_empty_registry():
    from repro.metrics.exposition import render_lines

    assert list(render_lines([])) == []
    assert render_exposition([]) == ""


def test_strict_parse_still_rejects_bad_values():
    with pytest.raises(ValueError):
        parse_exposition("metric_name not_a_number\n")
