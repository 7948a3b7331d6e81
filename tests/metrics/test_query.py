"""Unit tests for the mini query language (parser and evaluator)."""

import math

import pytest

from repro.metrics import MetricStore, QueryError, evaluate, evaluate_scalar
from repro.metrics.query import (
    MAX_QUERY_DEPTH,
    Aggregation,
    BinaryOp,
    FunctionCall,
    Scalar,
    Selector,
    parse,
)


# -- Parsing ------------------------------------------------------------------


def test_parse_bare_selector():
    node = parse("request_errors")
    assert isinstance(node, Selector)
    assert node.name == "request_errors"
    assert node.matchers == ()
    assert node.window is None


def test_parse_selector_with_matchers():
    node = parse('request_errors{instance="search:80", code!="200"}')
    assert isinstance(node, Selector)
    assert len(node.matchers) == 2
    assert node.matchers[0].label == "instance"
    assert node.matchers[0].op == "="
    assert node.matchers[0].value == "search:80"
    assert node.matchers[1].op == "!="


def test_parse_regex_matchers():
    node = parse('m{v=~"prod.*", w!~"x"}')
    assert node.matchers[0].op == "=~"
    assert node.matchers[1].op == "!~"


def test_parse_range_function():
    node = parse("rate(requests[30s])")
    assert isinstance(node, FunctionCall)
    assert node.function == "rate"
    assert node.argument.window == 30.0


def test_parse_duration_units():
    assert parse("rate(m[2m])").argument.window == 120.0
    assert parse("rate(m[1h])").argument.window == 3600.0
    assert parse("rate(m[1d])").argument.window == 86400.0


def test_parse_aggregation():
    node = parse("sum(rate(requests[30s]))")
    assert isinstance(node, Aggregation)
    assert node.op == "sum"
    assert isinstance(node.argument, FunctionCall)


def test_parse_arithmetic_with_precedence():
    node = parse("m + 2 * 3")
    assert isinstance(node, BinaryOp)
    assert node.op == "+"
    assert isinstance(node.right, BinaryOp)
    assert node.right.op == "*"


def test_parse_parentheses_override_precedence():
    node = parse("(m + 2) * 3")
    assert node.op == "*"
    assert isinstance(node.left, BinaryOp)


def test_parse_scalar():
    node = parse("42.5")
    assert isinstance(node, Scalar)
    assert node.value == 42.5


def test_parse_errors():
    for bad in [
        "",
        "rate(m)",  # range function without window
        "m{",  # unterminated matchers
        'm{a=}',  # missing value
        "m[30s]",  # bare range selector
        "m n",  # trailing input
        "sum(",  # unterminated call
        "m{a~\"x\"}",  # bad operator
        "@",  # bad character
        'm{a=~"("}',  # regex that does not compile
        'sum(m{a!~"[z"})',  # ... in a negated matcher, nested
    ]:
        with pytest.raises(QueryError):
            node = parse(bad)
            # bare range selectors only fail at evaluation
            evaluate(MetricStore(), node, at=0)


def test_parse_bounds_tree_depth():
    """Parentheses, aggregations and binary operators each count a level."""
    store = MetricStore()
    store.record("m", 1.0, 1.0)
    deepest = MAX_QUERY_DEPTH - 1  # nestings around a leaf of depth 1
    for query, value in [
        ("(" * deepest + "m" + ")" * deepest, 1.0),
        ("sum(" * deepest + "m" + ")" * deepest, 1.0),
        (" + ".join(["m"] * MAX_QUERY_DEPTH), float(MAX_QUERY_DEPTH)),
        ("sum(" * (deepest - 1) + "m * 2" + ")" * (deepest - 1), 2.0),
    ]:
        assert evaluate_scalar(store, query, at=1.0) == value
    for query in [
        "(" * 3000 + "m" + ")" * 3000,
        "sum(" * 400 + "m" + ")" * 400,
        " + ".join(["m"] * 1000),
        "(" * MAX_QUERY_DEPTH + "m" + ")" * MAX_QUERY_DEPTH,
        "sum(" * deepest + "m * 2" + ")" * deepest,
        "(" * 60 + " + ".join(["m"] * 60) + ")" * 60,
    ]:
        with pytest.raises(QueryError, match="deeper than"):
            parse(query)


# -- Evaluation ----------------------------------------------------------------


@pytest.fixture
def store():
    store = MetricStore()
    for t in range(11):  # counter increasing by 2/s for 10s
        store.record("requests", 2.0 * t, float(t), {"instance": "a"})
        store.record("requests", 4.0 * t, float(t), {"instance": "b"})
    store.record("temperature", 21.0, 10.0, {"room": "lab"})
    return store


def test_evaluate_instant_selector(store):
    vector = evaluate(store, "requests", at=10.0)
    assert {tuple(s.labels.items()): s.value for s in vector} == {
        (("instance", "a"),): 20.0,
        (("instance", "b"),): 40.0,
    }


def test_evaluate_selector_with_matcher(store):
    vector = evaluate(store, 'requests{instance="a"}', at=10.0)
    assert len(vector) == 1
    assert vector[0].value == 20.0


def test_evaluate_scalar_sums_vector(store):
    assert evaluate_scalar(store, "requests", at=10.0) == 60.0


def test_evaluate_scalar_empty_vector_is_none(store):
    assert evaluate_scalar(store, "missing_metric", at=10.0) is None


def test_evaluate_rate(store):
    vector = evaluate(store, 'rate(requests{instance="a"}[10s])', at=10.0)
    assert len(vector) == 1
    assert vector[0].value == pytest.approx(2.0)


def test_evaluate_rate_handles_counter_reset():
    store = MetricStore()
    store.record("c", 10.0, 2.0)
    store.record("c", 20.0, 5.0)
    store.record("c", 3.0, 10.0)  # reset, then 3 more
    vector = evaluate(store, "rate(c[10s])", at=10.0)
    assert vector[0].value == pytest.approx((10.0 + 3.0) / 8.0)


def test_evaluate_increase(store):
    # Window (5, 10] holds samples at t=6..10; the increase over that
    # observed range (no Prometheus-style extrapolation) is 4*(10-6).
    vector = evaluate(store, 'increase(requests{instance="b"}[5s])', at=10.0)
    assert vector[0].value == pytest.approx(4.0 * 4)


def test_evaluate_rate_needs_two_samples():
    store = MetricStore()
    store.record("c", 1.0, 10.0)
    assert evaluate(store, "rate(c[30s])", at=10.0) == []


def test_evaluate_over_time_functions(store):
    # Window (6, 10] holds samples at t=7,8,9,10 -> values 14,16,18,20.
    at = 10.0
    assert evaluate_scalar(store, 'avg_over_time(requests{instance="a"}[4s])', at) == 17.0
    assert evaluate_scalar(store, 'max_over_time(requests{instance="a"}[4s])', at) == 20.0
    assert evaluate_scalar(store, 'min_over_time(requests{instance="a"}[4s])', at) == 14.0
    assert evaluate_scalar(store, 'sum_over_time(requests{instance="a"}[4s])', at) == 68.0
    assert evaluate_scalar(store, 'count_over_time(requests{instance="a"}[4s])', at) == 4.0


def test_evaluate_aggregations(store):
    at = 10.0
    assert evaluate_scalar(store, "sum(requests)", at) == 60.0
    assert evaluate_scalar(store, "avg(requests)", at) == 30.0
    assert evaluate_scalar(store, "min(requests)", at) == 20.0
    assert evaluate_scalar(store, "max(requests)", at) == 40.0
    assert evaluate_scalar(store, "count(requests)", at) == 2.0


def test_evaluate_aggregation_of_empty_vector(store):
    assert evaluate(store, "sum(nothing)", at=10.0) == []


def test_evaluate_scalar_arithmetic(store):
    assert evaluate_scalar(store, 'requests{instance="a"} * 2', at=10.0) == 40.0
    assert evaluate_scalar(store, '100 - temperature{room="lab"}', at=10.0) == 79.0
    assert evaluate_scalar(store, 'requests{instance="a"} / 4', at=10.0) == 5.0


def test_evaluate_division_by_zero_is_inf(store):
    assert evaluate_scalar(store, 'requests{instance="a"} / 0', at=10.0) == float("inf")


def test_evaluate_division_by_zero_follows_ieee_754(store):
    # As PromQL: the sign of the quotient is the numerator's, and 0/0 is NaN.
    assert evaluate_scalar(store, '(0 - requests{instance="a"}) / 0', at=10.0) == -math.inf
    assert math.isnan(evaluate_scalar(store, "0 / 0", at=10.0))
    assert math.isnan(evaluate_scalar(store, 'requests{instance="a"} * 0 / 0', at=10.0))


def test_success_ratio_over_zero_traffic_is_nan_not_inf():
    # A flat counter pair: no request succeeded and none was made.
    store = MetricStore()
    for t in (0.0, 10.0, 20.0):
        store.record("ok_total", 5.0, t)
        store.record("all_total", 5.0, t)
    ratio = "sum(rate(ok_total[30s])) / sum(rate(all_total[30s]))"
    assert math.isnan(evaluate_scalar(store, ratio, at=20.0))


def test_evaluate_vector_vector_arithmetic_matches_labels(store):
    # requests{a} + requests{a} elementwise on identical label sets.
    vector = evaluate(store, "requests + requests", at=10.0)
    values = {s.labels["instance"]: s.value for s in vector}
    assert values == {"a": 40.0, "b": 80.0}


def test_evaluate_staleness_hides_old_samples(store):
    # Samples are at t<=10; at t=400 they are past the 300s staleness bound.
    assert evaluate(store, "requests", at=400.0) == []


def bucket_store(counts_by_bound, at=10.0, labels=None):
    store = MetricStore()
    for bound, count in counts_by_bound.items():
        merged = {"le": bound, **(labels or {})}
        store.record("latency_bucket", float(count), at, merged)
    return store


def test_histogram_quantile_interpolates_within_bucket():
    # 100 observations: 50 in (0, 0.1], 40 in (0.1, 0.5], 10 beyond.
    store = bucket_store({"0.1": 50, "0.5": 90, "+Inf": 100})
    median = evaluate_scalar(store, "histogram_quantile(0.5, latency_bucket)", 10.0)
    assert median == pytest.approx(0.1)  # rank 50 sits exactly at le=0.1
    p75 = evaluate_scalar(store, "histogram_quantile(0.75, latency_bucket)", 10.0)
    # rank 75: 25 of the 40 observations into (0.1, 0.5].
    assert p75 == pytest.approx(0.1 + 0.4 * 25 / 40)


def test_histogram_quantile_overflow_clamps_to_highest_finite_bound():
    store = bucket_store({"0.1": 10, "0.5": 20, "+Inf": 100})
    p99 = evaluate_scalar(store, "histogram_quantile(0.99, latency_bucket)", 10.0)
    assert p99 == pytest.approx(0.5)


def test_histogram_quantile_groups_by_instance():
    store = MetricStore()
    for instance, scale in (("a", 1), ("b", 10)):
        for bound, count in (("0.1", 50), ("0.5", 90), ("+Inf", 100)):
            store.record(
                "latency_bucket",
                float(count),
                10.0,
                {"le": bound, "instance": instance},
            )
    vector = evaluate(store, "histogram_quantile(0.5, latency_bucket)", 10.0)
    assert len(vector) == 2
    assert {s.labels["instance"] for s in vector} == {"a", "b"}
    # Per-instance selection works too.
    one = evaluate(
        store, 'histogram_quantile(0.5, latency_bucket{instance="a"})', 10.0
    )
    assert len(one) == 1


def test_histogram_quantile_empty_and_malformed():
    # No samples at all.
    assert evaluate(MetricStore(), "histogram_quantile(0.5, nothing)", 10.0) == []
    # Histogram without a +Inf bucket is skipped, not miscomputed.
    store = bucket_store({"0.5": 10})
    assert evaluate(store, "histogram_quantile(0.5, latency_bucket)", 10.0) == []
    # Zero observations.
    store = bucket_store({"0.5": 0, "+Inf": 0})
    assert evaluate(store, "histogram_quantile(0.5, latency_bucket)", 10.0) == []


def test_histogram_quantile_parse_errors():
    for bad in [
        "histogram_quantile(1.5, m)",  # quantile out of range
        "histogram_quantile(x, m)",  # non-numeric quantile
        "histogram_quantile(0.5, m[30s])",  # range selector
        "histogram_quantile(0.5)",  # missing selector
    ]:
        with pytest.raises(QueryError):
            parse(bad)


def test_histogram_quantile_real_registry_round_trip():
    """End to end with the Histogram metric type: observe -> scrape-shape
    points -> quantile query."""
    from repro.metrics import Registry

    registry = Registry()
    histogram = registry.histogram("resp", buckets=(0.05, 0.1, 0.25))
    for value in [0.01] * 60 + [0.08] * 30 + [0.2] * 10:
        histogram.observe(value)
    store = MetricStore()
    for point in registry.collect():
        store.record(point.name, point.value, 10.0, point.labels)
    p50 = evaluate_scalar(store, "histogram_quantile(0.5, resp_bucket)", 10.0)
    assert 0.0 < p50 <= 0.05  # 60% of observations are below 50ms
    p95 = evaluate_scalar(store, "histogram_quantile(0.95, resp_bucket)", 10.0)
    assert 0.1 < p95 <= 0.25


def test_evaluate_accepts_prebuilt_expression(store):
    node = parse("sum(requests)")
    assert evaluate_scalar(store, node, at=10.0) == 60.0
