"""One batch per provider per dispatch: one Task, one ``ask`` call.

The new questions one dispatch asks of one provider go out as one
:meth:`~repro.metrics.provider.MetricsProvider.ask` call in one Task,
which folds each check as its last answer arrives (docs/architecture.md,
"Check scheduler").  Over HTTP that call is one pipelined write; the
default ``ask`` runs a Task per question, so a hung question holds up
only the checks that asked it.
"""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import (
    CheckScheduler,
    ExceptionCheck,
    ExceptionTriggered,
    MetricCondition,
    Timer,
    simple_basic_check,
)
from repro.httpcore import HttpConnection
from repro.metrics import HttpPrometheusProvider, MetricsServer, StaticProvider
from repro.resilience import FaultSchedule, FaultyProvider, HangFault
from tests.core.test_scheduler_wave import ScriptedProvider, assert_nothing_left


def basic(name, query, provider="p", interval=5.0):
    return simple_basic_check(
        name, query, ">0.5", interval=interval, repetitions=1, provider=provider
    )


class AskCounting(HttpPrometheusProvider):
    """Records the queries of every ``ask`` call."""

    def __init__(self, base_url):
        super().__init__(base_url)
        self.asked: list[list[str]] = []

    def ask(self, queries):
        self.asked.append(list(queries))
        return super().ask(queries)


async def test_one_ask_and_one_write_per_provider_per_dispatch(monkeypatch):
    server = MetricsServer(clock=VirtualClock(start=50.0))
    for instance in "abcd":
        server.store.record("up", 1.0, 49.0, {"instance": instance})
    await server.start(scrape=False)
    requests_written = []
    original = HttpConnection.write

    def counting_write(connection, data):
        if data.startswith(b"GET "):  # a client's request write
            requests_written.append(data.count(b"GET "))
        return original(connection, data)

    monkeypatch.setattr(HttpConnection, "write", counting_write)
    first = AskCounting(f"http://{server.address}")
    second = AskCounting(f"http://{server.address}")
    providers = {"first": first, "second": second}
    asked_first = [f'up{{instance="{i}"}}' for i in "abcd"]
    asked_second = [f'sum(up{{instance="{i}"}})' for i in "abc"]
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    try:
        checks = [basic(f"f{n}", q, provider="first") for n, q in enumerate(asked_first)]
        # Two checks ask one question: it is still one question of the batch.
        checks += [basic("f-again", asked_first[0], provider="first")]
        checks += [basic(f"s{n}", q, provider="second") for n, q in enumerate(asked_second)]
        futures = [scheduler.schedule(check, providers) for check in checks]
        await clock.advance(5.0)
        results = await asyncio.gather(*futures)
    finally:
        await scheduler.close()
        await first.close()
        await second.close()
        await server.stop()
    assert [result.mapped for result in results] == [1] * len(checks)
    assert first.asked == [asked_first]
    assert second.asked == [asked_second]
    # One write per batch, carrying every request of it.
    assert sorted(requests_written) == [3, 4]


async def test_a_hung_question_holds_up_only_its_own_checks():
    clock = VirtualClock()
    inner = StaticProvider({"hangs": 1.0, "b": 1.0, "c": 1.0})
    provider = FaultyProvider(inner, FaultSchedule.calls([1], HangFault()), clock)
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic(name, query), {"p": provider})
        for name, query in [("a", "hangs"), ("b", "b"), ("c", "c")]
    ]
    await clock.advance(5.0)
    assert inner.query_log == ["b", "c"]  # the first call hangs
    assert [future.done() for future in futures] == [False, True, True]
    for future in futures[1:]:
        assert [e.at for e in future.result().executions] == [5.0]
    futures[0].cancel()
    await assert_nothing_left(clock, scheduler)


async def test_a_batch_is_cancelled_once_none_of_its_questions_has_an_owner():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"x", "y"})
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic("a", "x"), {"p": provider}),
        scheduler.schedule(basic("b", "y"), {"p": provider}),
    ]
    await clock.advance(5.0)
    (batch,) = scheduler._batches
    futures[0].cancel()
    await clock.advance(0.0)
    # "x" left the table at once; the batch goes on for "y".
    assert list(scheduler._inflight) == [(id(provider), "y")]
    assert not batch.task.done()
    futures[1].cancel()
    await clock.advance(0.0)
    assert batch.task.cancelled()
    assert not scheduler._inflight
    await assert_nothing_left(clock, scheduler)


async def test_a_batch_with_one_owner_left_still_answers_it():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"x": 2.0, "y": 2.0})
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic("a", "x"), {"p": provider}),
        scheduler.schedule(basic("b", "y"), {"p": provider}),
    ]
    await clock.advance(5.5)
    futures[0].cancel()
    await clock.advance(2.0)
    assert futures[1].done()
    assert [(e.at, e.result) for e in futures[1].result().executions] == [(7.0, 1)]
    assert provider.calls == ["x", "y"]
    assert not scheduler._inflight
    await assert_nothing_left(clock, scheduler)


async def test_a_fold_in_progress_is_not_cancelled_with_its_batch():
    """A trigger inside the fold a batch task runs retires the sibling
    that owned the batch's last question still out: the fold finishes,
    then the batch stops on its own instead of being cancelled under it."""
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"y"})
    scheduler = CheckScheduler(clock)
    trips = ExceptionCheck(
        name="a",
        condition=MetricCondition.simple("x", "<0.5", provider="p"),
        timer=Timer(5.0, 1),
        fallback_state="rollback",
    )
    group = scheduler.schedule_group([trips, basic("b", "y")], {"p": provider})
    await clock.advance(4.0)
    created = []
    loop = asyncio.get_running_loop()
    loop.set_task_factory(
        lambda loop, coro, **kwargs: created.append(asyncio.Task(coro, loop=loop, **kwargs))
        or created[-1]
    )
    try:
        await clock.advance(1.0)
    finally:
        loop.set_task_factory(None)
    with pytest.raises(ExceptionTriggered):
        group.result()
    (batch,) = [task for task in created if task.get_coro().__qualname__ == "CheckScheduler._ask"]
    assert batch.done() and not batch.cancelled()
    await assert_nothing_left(clock, scheduler)


class AskRaises(StaticProvider):
    """Answers the first query of a batch, then its ``ask`` itself fails."""

    def ask(self, queries):
        async def answers():
            yield 0, await self.query(queries[0])
            raise ConnectionError("batch lost")

        return answers()


async def test_an_ask_that_raises_answers_the_rest_as_no_data():
    clock = VirtualClock()
    provider = AskRaises({"x": 1.0, "y": 1.0, "z": 1.0})
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic(name, name), {"p": provider}) for name in "xyz"
    ]
    await clock.advance(5.0)
    assert all(future.done() for future in futures)
    assert [future.result().mapped for future in futures] == [1, 0, 0]
    assert not scheduler._inflight
    await assert_nothing_left(clock, scheduler)
