"""Provider-error semantics: no-data vs failed, and exception-check policies."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import (
    CheckError,
    CheckScheduler,
    ExceptionCheck,
    ExceptionTriggered,
    MetricCondition,
    ProviderErrorPolicy,
    Timer,
)
from repro.metrics import LocalPrometheusProvider, MetricStore, StaticProvider
from repro.metrics.provider import MetricsProvider, ProviderError
from tests.core.fetching import evaluate


class ScriptedProvider(MetricsProvider):
    """Yields one scripted outcome per query: a float, None, or an exception."""

    name = "static"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    async def query(self, query):
        self.calls += 1
        outcome = self.script.pop(0) if self.script else self.script_default()
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    @staticmethod
    def script_default():
        raise ProviderError("script exhausted")


def exception_check(policy, repetitions=5):
    return ExceptionCheck(
        "guard",
        MetricCondition.simple("m", ">0", provider="static"),
        Timer(1.0, repetitions),
        fallback_state="rollback",
        on_provider_error=policy,
    )


async def run_check(check, provider):
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    try:
        future = scheduler.schedule(check, {"static": provider})
        for _ in range(100):
            if future.done():
                break
            await clock.advance(1.0)
        assert future.done()
        return future.result()
    finally:
        await scheduler.close()


# -- evaluate_detailed ----------------------------------------------------


async def test_evaluate_distinguishes_no_data_from_failed():
    condition = MetricCondition.simple("m", ">0", provider="static")
    ok = await evaluate(condition, {"static": StaticProvider({"m": 1.0})})
    assert (ok.result, ok.data_available) == (1, True)
    failed = await evaluate(condition, {"static": StaticProvider({"m": -1.0})})
    assert (failed.result, failed.data_available) == (0, True)
    missing = await evaluate(condition, {"static": StaticProvider({"m": None})})
    assert (missing.result, missing.data_available) == (0, False)
    erroring = await evaluate(condition, {"static": StaticProvider({})})
    assert (erroring.result, erroring.data_available) == (0, False)
    assert erroring.errors


async def test_unexpected_provider_exception_is_no_data_not_a_crash():
    """A backend leaking ConnectionError/OSError must not abort the enactment."""
    condition = MetricCondition.simple("m", ">0", provider="static")
    for leaked in (ConnectionError("refused"), OSError("broken pipe"), TimeoutError()):
        provider = ScriptedProvider([leaked])
        evaluation = await evaluate(condition, {"static": provider})
        assert (evaluation.result, evaluation.data_available) == (0, False)


async def test_query_that_does_not_parse_is_no_data_with_the_parse_message():
    store = MetricStore()
    store.record("x", 1.0, 0.0, {"a": "b"})
    provider = LocalPrometheusProvider(store, VirtualClock())
    condition = MetricCondition.simple('x{a=~"("}', ">0")
    evaluation = await evaluate(condition, {"prometheus": provider})
    assert (evaluation.result, evaluation.data_available) == (0, False)
    assert "invalid regex" in evaluation.errors[0]


async def test_cancelled_error_still_propagates():
    class Cancelling(MetricsProvider):
        name = "static"

        async def query(self, query):
            raise asyncio.CancelledError()

    condition = MetricCondition.simple("m", ">0", provider="static")
    with pytest.raises(asyncio.CancelledError):
        await evaluate(condition, {"static": Cancelling()})


# -- ProviderErrorPolicy parsing ------------------------------------------


def test_policy_parse_round_trip():
    for text in ("trigger", "hold", "tolerate(3)"):
        assert str(ProviderErrorPolicy.parse(text)) == text


def test_policy_parse_rejects_garbage():
    for bad in ("sometimes", "tolerate", "tolerate(0)", "tolerate(-1)", "tolerate(x)"):
        with pytest.raises(CheckError):
            ProviderErrorPolicy.parse(bad)


def test_policy_validation():
    with pytest.raises(CheckError):
        ProviderErrorPolicy(mode="hold", tolerance=2)
    with pytest.raises(CheckError):
        ProviderErrorPolicy(mode="tolerate", tolerance=0)


# -- a scheduled check under each policy ---------------------------------


async def test_trigger_policy_is_the_default_and_fires_immediately():
    check = exception_check(ProviderErrorPolicy())
    with pytest.raises(ExceptionTriggered):
        await run_check(check, ScriptedProvider([1.0, ProviderError("down")]))


async def test_hold_policy_skips_the_tick_entirely():
    check = exception_check(ProviderErrorPolicy(mode="hold"), repetitions=4)
    result = await run_check(
        check, ScriptedProvider([1.0, ProviderError("blip"), 1.0, 1.0])
    )
    # 4 ticks ran, but the held one left no execution behind.
    assert len(result.executions) == 3
    assert result.aggregated == 3


async def test_hold_policy_still_triggers_on_real_failures():
    check = exception_check(ProviderErrorPolicy(mode="hold"), repetitions=4)
    with pytest.raises(ExceptionTriggered):
        await run_check(check, ScriptedProvider([1.0, ProviderError("blip"), -5.0]))


async def test_tolerate_policy_allows_n_consecutive_errors():
    check = exception_check(
        ProviderErrorPolicy(mode="tolerate", tolerance=2), repetitions=5
    )
    down = ProviderError("down")
    result = await run_check(
        check, ScriptedProvider([1.0, down, down, 1.0, 1.0])
    )
    assert result.aggregated == 3
    assert [execution.result for execution in result.executions] == [1, 0, 0, 1, 1]


async def test_tolerate_policy_triggers_past_the_budget():
    check = exception_check(
        ProviderErrorPolicy(mode="tolerate", tolerance=2), repetitions=5
    )
    down = ProviderError("down")
    provider = ScriptedProvider([1.0, down, down, down, 1.0])
    with pytest.raises(ExceptionTriggered):
        await run_check(check, provider)
    assert provider.calls == 4  # triggered on the 3rd consecutive error


async def test_tolerate_counter_resets_on_data():
    check = exception_check(
        ProviderErrorPolicy(mode="tolerate", tolerance=1), repetitions=6
    )
    down = ProviderError("down")
    # error, data, error, data, ... never two consecutive errors.
    result = await run_check(
        check, ScriptedProvider([down, 1.0, down, 1.0, down, 1.0])
    )
    assert result.aggregated == 3
