"""Tests for timed checks: timers, conditions, scheduling, exception checks."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import (
    BasicCheck,
    CheckError,
    CheckScheduler,
    ExceptionCheck,
    ExceptionTriggered,
    MetricCondition,
    MetricQuery,
    OutputMapping,
    Timer,
    simple_basic_check,
)
from repro.metrics import StaticProvider
from tests.core.fetching import evaluate


# -- Timer ---------------------------------------------------------------------


def test_timer_duration():
    assert Timer(5.0, 12).duration == 60.0


def test_timer_validation():
    with pytest.raises(CheckError):
        Timer(0, 3)
    with pytest.raises(CheckError):
        Timer(1.0, 0)


# -- MetricCondition -------------------------------------------------------------


def test_condition_needs_queries():
    with pytest.raises(CheckError):
        MetricCondition(queries=())


def test_condition_needs_exactly_one_decider():
    query = MetricQuery("v", "q")
    with pytest.raises(CheckError):
        MetricCondition(queries=(query,))  # neither
    with pytest.raises(CheckError):
        MetricCondition(
            queries=(query,),
            validator=simple_basic_check("x", "q", "<5", 1, 1).condition.validator,
            predicate=lambda values: True,
        )


def test_condition_rejects_duplicate_query_names():
    with pytest.raises(CheckError):
        MetricCondition(
            queries=(MetricQuery("v", "q1"), MetricQuery("v", "q2")),
            predicate=lambda values: True,
        )


def test_condition_validator_subject_must_exist():
    with pytest.raises(CheckError):
        MetricCondition(
            queries=(MetricQuery("v", "q"),),
            validator=MetricCondition.simple("q", "<5").validator,
            subject="other",
        )


async def test_simple_condition_evaluates_against_provider():
    condition = MetricCondition.simple("request_errors", "<5", provider="static")
    providers = {"static": StaticProvider({"request_errors": 3.0})}
    assert (await evaluate(condition, providers)).result == 1
    providers = {"static": StaticProvider({"request_errors": 7.0})}
    assert (await evaluate(condition, providers)).result == 0


async def test_condition_missing_data_fails():
    condition = MetricCondition.simple("m", "<5", provider="static")
    providers = {"static": StaticProvider({"m": None})}
    assert (await evaluate(condition, providers)).result == 0


async def test_condition_provider_error_counts_as_failure():
    condition = MetricCondition.simple("unknown", "<5", provider="static")
    providers = {"static": StaticProvider({})}
    assert (await evaluate(condition, providers)).result == 0


async def test_condition_unknown_provider_raises():
    condition = MetricCondition.simple("m", "<5", provider="nope")
    with pytest.raises(CheckError):
        await evaluate(condition, {})


async def test_condition_with_custom_predicate_over_multiple_metrics():
    condition = MetricCondition(
        queries=(
            MetricQuery("sales_a", "sales_a_q", "static"),
            MetricQuery("sales_b", "sales_b_q", "static"),
        ),
        predicate=lambda values: (values["sales_a"] or 0) > (values["sales_b"] or 0),
    )
    providers = {"static": StaticProvider({"sales_a_q": 12.0, "sales_b_q": 8.0})}
    assert (await evaluate(condition, providers)).result == 1
    providers = {"static": StaticProvider({"sales_a_q": 2.0, "sales_b_q": 8.0})}
    assert (await evaluate(condition, providers)).result == 0


async def test_condition_predicate_exception_counts_as_failure():
    condition = MetricCondition(
        queries=(MetricQuery("m", "q", "static"),),
        predicate=lambda values: 1 / 0,
    )
    providers = {"static": StaticProvider({"q": 1.0})}
    assert (await evaluate(condition, providers)).result == 0


# -- Comparison -------------------------------------------------------------------


def test_comparison_checks():
    from repro.core import Comparison

    assert Comparison("a", ">", "b").check(2.0, 1.0) == 1
    assert Comparison("a", ">", "b").check(1.0, 2.0) == 0
    assert Comparison("a", "<=", "b").check(1.0, 1.0) == 1
    assert Comparison("a", "!=", "b").check(1.0, 1.0) == 0


def test_comparison_missing_data_fails():
    from repro.core import Comparison

    comparison = Comparison("a", ">", "b")
    assert comparison.check(None, 1.0) == 0
    assert comparison.check(1.0, None) == 0
    assert comparison.check(None, None) == 0


def test_comparison_rejects_unknown_op():
    from repro.core import Comparison

    with pytest.raises(CheckError):
        Comparison("a", "~", "b")


def test_comparison_str():
    from repro.core import Comparison

    assert str(Comparison("x", ">=", "y")) == "x >= y"


async def test_condition_with_comparison_evaluates():
    from repro.core import Comparison

    condition = MetricCondition(
        queries=(
            MetricQuery("sales_a", "q_a", "static"),
            MetricQuery("sales_b", "q_b", "static"),
        ),
        comparison=Comparison("sales_a", ">", "sales_b"),
    )
    providers = {"static": StaticProvider({"q_a": 12.0, "q_b": 8.0})}
    assert (await evaluate(condition, providers)).result == 1
    providers = {"static": StaticProvider({"q_a": 2.0, "q_b": 8.0})}
    assert (await evaluate(condition, providers)).result == 0


def test_comparison_sides_must_be_query_names():
    from repro.core import Comparison

    with pytest.raises(CheckError):
        MetricCondition(
            queries=(MetricQuery("a", "qa"), MetricQuery("b", "qb")),
            comparison=Comparison("a", ">", "ghost"),
        )


def test_condition_rejects_multiple_rules():
    from repro.core import Comparison
    from repro.core.outcome import Validator

    with pytest.raises(CheckError):
        MetricCondition(
            queries=(MetricQuery("a", "qa"), MetricQuery("b", "qb")),
            comparison=Comparison("a", ">", "b"),
            validator=Validator.parse("<5"),
        )


# -- simple_basic_check factory ---------------------------------------------------


def test_simple_basic_check_defaults_threshold_to_repetitions():
    check = simple_basic_check("c", "q", "<5", interval=5, repetitions=12)
    assert check.timer == Timer(5, 12)
    assert check.output.map(12) == 1
    assert check.output.map(11) == 0


def test_simple_basic_check_partial_threshold():
    check = simple_basic_check("c", "q", "<5", interval=1, repetitions=10, threshold=8)
    assert check.output.map(8) == 1
    assert check.output.map(7) == 0


def test_simple_basic_check_threshold_bounds():
    with pytest.raises(Exception):
        simple_basic_check("c", "q", "<5", 1, 10, threshold=11)
    with pytest.raises(Exception):
        simple_basic_check("c", "q", "<5", 1, 10, threshold=0)


# -- one check on a CheckScheduler -------------------------------------------------


async def run_with_clock(check, providers, clock, total_time, observer=None):
    scheduler = CheckScheduler(clock)
    try:
        future = scheduler.schedule(check, providers, observer=observer)
        await asyncio.sleep(0)
        await clock.advance(total_time)
        return await future
    finally:
        await scheduler.close()


async def test_basic_check_runs_n_times_and_aggregates():
    clock = VirtualClock()
    provider = StaticProvider({"q": [1.0, 10.0, 1.0, 1.0]})  # second fails "<5"
    check = simple_basic_check("c", "q", "<5", interval=5, repetitions=4, threshold=3,
                               provider="static")
    result = await run_with_clock(check, {"static": provider}, clock, 20)
    assert result.aggregated == 3
    assert result.mapped == 1
    assert [e.at for e in result.executions] == [5.0, 10.0, 15.0, 20.0]
    assert [e.result for e in result.executions] == [1, 0, 1, 1]


async def test_basic_check_failure_mapping():
    clock = VirtualClock()
    provider = StaticProvider({"q": 100.0})
    check = simple_basic_check("c", "q", "<5", interval=1, repetitions=3,
                               provider="static")
    result = await run_with_clock(check, {"static": provider}, clock, 3)
    assert result.aggregated == 0
    assert result.mapped == 0


async def test_basic_check_with_custom_output_mapping():
    clock = VirtualClock()
    provider = StaticProvider({"q": 1.0})
    check = BasicCheck(
        name="response-time",
        condition=MetricCondition.simple("q", "<5", provider="static"),
        timer=Timer(1, 100),
        output=OutputMapping.from_pairs([75, 95], [-5, 4, 5]),
    )
    result = await run_with_clock(check, {"static": provider}, clock, 100)
    assert result.aggregated == 100
    assert result.mapped == 5  # >95 passes -> top range


async def test_exception_check_triggers_on_first_failure():
    clock = VirtualClock()
    provider = StaticProvider({"q": [1.0, 1.0, 99.0, 1.0]})
    check = ExceptionCheck(
        name="errors",
        condition=MetricCondition.simple("q", "<5", provider="static"),
        timer=Timer(2, 10),
        fallback_state="rollback",
    )
    with pytest.raises(ExceptionTriggered) as exc_info:
        await run_with_clock(check, {"static": provider}, clock, 20)
    assert exc_info.value.check.fallback_state == "rollback"
    assert exc_info.value.at == 6.0  # third execution at t=6


async def test_exception_check_all_pass_returns_repetitions():
    clock = VirtualClock()
    provider = StaticProvider({"q": 1.0})
    check = ExceptionCheck(
        name="errors",
        condition=MetricCondition.simple("q", "<5", provider="static"),
        timer=Timer(1, 5),
        fallback_state="rollback",
    )
    result = await run_with_clock(check, {"static": provider}, clock, 5)
    assert result.aggregated == 5
    assert result.mapped == 5


async def test_runner_notifies_observer_per_execution():
    clock = VirtualClock()
    provider = StaticProvider({"q": 1.0})
    check = simple_basic_check("c", "q", "<5", interval=1, repetitions=3,
                               provider="static")
    seen = []

    def observer(observed_check, execution):
        seen.append((observed_check.name, execution.at, execution.result))

    await run_with_clock(check, {"static": provider}, clock, 3, observer)
    assert seen == [("c", 1.0, 1), ("c", 2.0, 1), ("c", 3.0, 1)]
