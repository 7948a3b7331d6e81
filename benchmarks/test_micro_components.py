"""Micro-benchmarks of the middleware's hot paths.

Not a paper artifact — these quantify the per-request and per-check costs
that the macro experiments aggregate: query parsing/evaluation, routing
decisions, HTTP message round trips, and outcome mapping.  Useful for
catching performance regressions in the substrate.
"""

import pytest

from repro.core import OutputMapping, ThresholdRanges, canary_split, weighted_outcome
from repro.httpcore import Headers, Request, Response
from repro.metrics import MetricStore, evaluate_scalar, parse
from repro.proxy import FilterChain


@pytest.mark.benchmark(group="micro")
def test_query_parse(benchmark):
    benchmark(parse, 'sum(rate(request_errors{instance="search:80", code=~"5.."}[30s]))')


@pytest.mark.benchmark(group="micro")
def test_query_evaluate(benchmark):
    store = MetricStore()
    for instance in ("a", "b", "c", "d"):
        for t in range(120):
            store.record("requests", float(t * 2), float(t), {"instance": instance})
    expression = parse("sum(rate(requests[60s]))")
    result = benchmark(evaluate_scalar, store, expression, 119.0)
    assert result == pytest.approx(8.0)


@pytest.mark.benchmark(group="micro")
def test_store_ingest(benchmark):
    store = MetricStore(retention=600.0)
    counter = iter(range(10**9))

    def ingest():
        t = float(next(counter))
        store.record("m", t, t, {"instance": "svc"})

    benchmark(ingest)


@pytest.mark.benchmark(group="micro")
def test_routing_decision_cookie(benchmark):
    chain = FilterChain(canary_split("stable", "canary", 5.0))
    request = Request(
        "GET", "/products", Headers([("Cookie", "bifrost_client=u-123")])
    )
    decision = benchmark(chain.decide, request)
    assert decision.version in ("stable", "canary")


@pytest.mark.benchmark(group="micro")
def test_http_request_serialize_roundtrip(benchmark):
    request = Request(
        "POST",
        "/products/SKU-0001/buy",
        Headers([("Host", "shop"), ("Authorization", "Bearer token")]),
        body=b'{"qty": 1}',
    )

    def round_trip():
        return len(request.serialize())

    assert benchmark(round_trip) > 0


@pytest.mark.benchmark(group="micro")
def test_response_serialize(benchmark):
    response = Response.from_json({"products": [{"sku": f"SKU-{i}"} for i in range(50)]})
    benchmark(response.serialize)


@pytest.mark.benchmark(group="micro")
def test_outcome_mapping(benchmark):
    mapping = OutputMapping(ThresholdRanges((75.0, 95.0)), (-5, 4, 5))

    def map_outcomes():
        return [mapping.map(value) for value in (10, 80, 99)]

    assert benchmark(map_outcomes) == [-5, 4, 5]


@pytest.mark.benchmark(group="micro")
def test_weighted_outcome(benchmark):
    outcomes = [1, 0, 1, 1, 5, -5]
    weights = [1.0, 2.0, 1.0, 0.5, 1.0, 1.0]
    benchmark(weighted_outcome, outcomes, weights)


@pytest.mark.benchmark(group="micro")
def test_series_append_trim_cycle(benchmark):
    """Retention-style workload: the ring's O(1) amortized trim hot loop."""
    from repro.metrics.series import SeriesKey, TimeSeries

    def cycle():
        series = TimeSeries(SeriesKey("m"))
        for t in range(2000):
            series.append_ordered(float(t), 1.0)
            if t >= 100:
                series.drop_before(float(t - 100))
        return len(series.window_arrays(-1.0, 2000.0)[0])

    assert benchmark(cycle) == 101


@pytest.mark.benchmark(group="micro")
def test_series_window_read(benchmark):
    """Range-selector reads over a wrapped ring (the rate() hot path)."""
    from repro.metrics.series import SeriesKey, TimeSeries

    series = TimeSeries(SeriesKey("m"))
    for t in range(20_000):
        series.append_ordered(float(t), float(t))
    series.drop_before(4_000.0)  # start pointer advances: windows wrap
    for t in range(20_000, 24_000):
        series.append_ordered(float(t), float(t))

    def read():
        timestamps, values = series.window_arrays(10_000.0, 22_000.0)
        return len(timestamps) + len(values)

    assert benchmark(read) == 24_000


@pytest.mark.benchmark(group="micro")
def test_histogram_quantile_cached_layout(benchmark):
    """Per-tick quantile over 20 histograms with the layout cache warm."""
    store = MetricStore()
    at = 60.0
    for instance in range(20):
        for le, count in (
            ("0.1", 10.0), ("0.25", 40.0), ("0.5", 70.0),
            ("1", 90.0), ("2.5", 98.0), ("+Inf", 100.0),
        ):
            store.record(
                "latency_bucket", count, at,
                {"instance": f"inst-{instance}", "le": le},
            )
    expression = parse("histogram_quantile(0.95, latency_bucket)")
    result = benchmark(evaluate_scalar, store, expression, at)
    assert result is not None and result > 0
