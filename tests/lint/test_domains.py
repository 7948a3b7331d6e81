"""The interval abstract domain (lint/domains.py)."""

import math

from repro.lint.domains import (
    Interval,
    NON_NEGATIVE,
    TOP,
    UNIT,
    always_holds,
    interval_of,
    never_holds,
    selector_interval,
)
from repro.metrics.query import compile_query

INF = float("inf")


def bounds(query):
    interval = interval_of(compile_query(query))
    return interval.lo, interval.hi


# -- selector naming conventions --------------------------------------------


def test_counter_suffixes_are_non_negative():
    for name in ("errors_total", "requests_count", "latency_bucket"):
        assert selector_interval(name) == NON_NEGATIVE


def test_ratio_and_up_are_unit():
    assert selector_interval("saturation_ratio") == UNIT
    assert selector_interval("up") == UNIT


def test_unknown_names_are_unbounded():
    assert selector_interval("queue_depth") == TOP
    assert selector_interval("temperature") == TOP


# -- structural bounds -------------------------------------------------------


def test_rate_and_increase_are_non_negative_for_any_series():
    assert bounds("rate(queue_depth[1m])") == (0.0, INF)
    assert bounds("increase(errors_total[5m])") == (0.0, INF)


def test_count_over_time_is_at_least_one():
    assert bounds("count_over_time(up[1m])") == (1.0, INF)


def test_avg_over_time_preserves_selector_bounds():
    assert bounds("avg_over_time(saturation_ratio[1m])") == (0.0, 1.0)
    assert bounds("max_over_time(queue_depth[1m])") == (-INF, INF)


def test_histogram_quantile_is_non_negative():
    assert bounds("histogram_quantile(0.99, latency_bucket)") == (0.0, INF)


def test_sum_aggregation_keeps_closed_sign_side():
    assert bounds("sum(errors_total)") == (0.0, INF)
    assert bounds("sum(queue_depth)") == (-INF, INF)


def test_count_aggregation_never_sees_empty_vector():
    # An empty vector aggregates to "no data", not 0 — count >= 1.
    assert bounds("count(queue_depth)") == (1.0, INF)


def test_scalar_is_a_point():
    assert bounds("42") == (42.0, 42.0)


# -- interval arithmetic -----------------------------------------------------


def test_arithmetic_follows_the_operands():
    assert bounds("errors_total + 5") == (5.0, INF)
    assert bounds("saturation_ratio * 100") == (0.0, 100.0)
    assert bounds("0 - errors_total") == (-INF, 0.0)


def test_division_by_interval_containing_zero_reaches_inf():
    # The evaluator maps x/0 to +inf, so the bound must include it.
    lo, hi = bounds("errors_total / requests_total")
    assert (lo, hi) == (0.0, INF)


def test_zero_over_zero_marks_the_quotient_nan():
    # The evaluator answers 0/0 with NaN, which no validator accepts.
    ratio = interval_of(compile_query("errors_total / requests_total"))
    assert ratio.nan
    assert str(ratio) == "[0, +inf] or NaN"
    assert not always_holds(ratio, ">=", 0.0)
    assert never_holds(ratio, "<", 0.0)  # NaN cannot satisfy it either
    # NaN survives further arithmetic and aggregation, but not count.
    assert interval_of(compile_query("sum(errors_total / requests_total) * 100")).nan
    assert not interval_of(compile_query("count(errors_total / requests_total)")).nan


def test_a_numerator_that_cannot_be_zero_gives_no_nan():
    quotient = interval_of(compile_query("(errors_total + 1) / requests_total"))
    assert (quotient.lo, quotient.hi, quotient.nan) == (0.0, INF, False)
    assert always_holds(quotient, ">=", 0.0)
    assert not interval_of(compile_query("saturation_ratio / 2")).nan


def test_a_non_positive_numerator_over_zero_reaches_minus_inf():
    # x / 0 is -inf for x < 0: the quotient keeps the numerator's sign.
    assert bounds("(0 - errors_total) / requests_total") == (-INF, 0.0)
    assert bounds("(0 - errors_total) / (requests_total - 1)") == (-INF, INF)


def test_division_by_strictly_positive_scalar_stays_bounded():
    assert bounds("saturation_ratio / 2") == (0.0, 0.5)


def test_zero_times_infinity_is_zero_endpoint():
    # [0, inf) * [0, inf) must be [0, inf), not NaN at the endpoints.
    lo, hi = bounds("errors_total * requests_total")
    assert (lo, hi) == (0.0, INF)
    assert not math.isnan(lo) and not math.isnan(hi)


# -- validator decisions -----------------------------------------------------


def test_never_holds_per_operator():
    nn = NON_NEGATIVE
    assert never_holds(nn, "<", 0.0)          # value < 0 impossible
    assert never_holds(nn, "<=", -1.0)
    assert never_holds(UNIT, ">", 1.0)
    assert never_holds(UNIT, ">=", 1.5)
    assert never_holds(UNIT, "==", 2.0)
    assert never_holds(Interval(3.0, 3.0), "!=", 3.0)
    assert not never_holds(nn, "<", 50.0)
    assert not never_holds(TOP, "<", 0.0)


def test_always_holds_per_operator():
    assert always_holds(UNIT, "<", 50.0)
    assert always_holds(UNIT, "<=", 1.0)
    assert always_holds(NON_NEGATIVE, ">=", 0.0)
    assert always_holds(Interval(2.0, INF), ">", 1.0)
    assert always_holds(Interval(3.0, 3.0), "==", 3.0)
    assert always_holds(UNIT, "!=", 7.0)
    assert not always_holds(NON_NEGATIVE, "<", 50.0)
    assert not always_holds(TOP, "!=", 0.0)


def test_nan_bound_decides_nothing():
    nan = float("nan")
    assert not never_holds(UNIT, "<", nan)
    assert not always_holds(UNIT, "<", nan)


def test_a_validator_is_never_both_unsatisfiable_and_tautological():
    intervals = [TOP, UNIT, NON_NEGATIVE, Interval(3.0, 3.0), Interval(-2.0, 5.0)]
    for interval in intervals:
        for op in ("<", "<=", ">", ">=", "==", "!="):
            for bound in (-1.0, 0.0, 0.5, 1.0, 3.0, 100.0):
                assert not (
                    never_holds(interval, op, bound)
                    and always_holds(interval, op, bound)
                ), (interval, op, bound)


def test_interval_str_is_readable():
    assert str(UNIT) == "[0, 1]"
    assert str(NON_NEGATIVE) == "[0, +inf]"
    assert str(Interval(-INF, 2.5)) == "[-inf, 2.5]"
