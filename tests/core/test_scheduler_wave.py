"""Wave evaluation: counts that repeat exactly, and fetches that have owners.

The checks due in one dispatch are one *wave*: each distinct ``(provider
object, query string)`` is fetched once, and every check that asked gets
that answer (docs/architecture.md, "Check scheduler").  The new questions
a dispatch asks of one provider are one batch: one Task and one ``ask``
call, which with the default ``ask`` runs one Task per question when it
holds more than one.  A check whose question is still in flight from an
earlier dispatch joins that fetch.  Nothing here is timed; everything runs
under a :class:`VirtualClock`.
"""

import asyncio
import json

import pytest

from repro.clock import VirtualClock
from repro.core import (
    BasicCheck,
    CheckError,
    CheckScheduler,
    Comparison,
    Engine,
    ExceptionCheck,
    ExceptionTriggered,
    ExecutionStatus,
    MetricCondition,
    MetricQuery,
    OutputMapping,
    StrategyBuilder,
    Timer,
    simple_basic_check,
)
from repro.core.routing import single_version
from repro.metrics import (
    HttpPrometheusProvider,
    MetricsProvider,
    ProviderError,
    StaticProvider,
)
from repro.resilience import FaultSchedule, FaultyProvider


#: While a wave is out the driver parks once on its wake event: one Task
#: per wave whatever the wave's size (``_wait_for_wake``), beside the batches.
DRIVER_PARK = 1
#: The coroutine of a batch's Task, and of the default ``ask``'s Task per
#: question in a batch of several.
BATCH = "CheckScheduler._ask"
QUESTION = "_EachInATask._answer"


class TaskCounter:
    """A task factory that counts the Tasks created while it is armed."""

    def __init__(self) -> None:
        self.created = 0
        self.batches = 0
        self.questions = 0
        asyncio.get_running_loop().set_task_factory(self)

    def __call__(self, loop, coro, **kwargs):
        # At loop shutdown asyncio also closes async generators in Tasks,
        # which run an ``athrow`` awaitable, not a coroutine.
        qualname = getattr(coro, "__qualname__", None)
        self.created += 1
        self.batches += qualname == BATCH
        self.questions += qualname == QUESTION
        return asyncio.Task(coro, loop=loop, **kwargs)


class ScriptedProvider(MetricsProvider):
    """Answers 1.0; per query it can sleep first, hang forever, or raise."""

    def __init__(self, clock, latencies=None, hanging=(), failing=None):
        self.clock = clock
        self.latencies = latencies or {}
        self.hanging = set(hanging)
        self.failing = failing or {}
        self.calls: list[str] = []

    async def query(self, query: str) -> float | None:
        self.calls.append(query)
        if query in self.hanging:
            await self.clock.sleep(1e9)
        if query in self.latencies:
            await self.clock.sleep(self.latencies[query])
        if query in self.failing:
            raise self.failing[query]
        return 1.0


def basic(name, query, provider="p", interval=5.0, repetitions=1):
    return simple_basic_check(
        name, query, ">0.5", interval=interval, repetitions=repetitions,
        provider=provider,
    )


def tripwire(name, query, provider="p", interval=5.0):
    return ExceptionCheck(
        name=name,
        condition=MetricCondition.simple(query, ">0.5", provider=provider),
        timer=Timer(interval, 3),
        fallback_state="rollback",
    )


def one_phase_strategy(name, checks, passing):
    """``probe`` runs *checks*; *passing* or more mapped successes reach ``done``."""
    builder = StrategyBuilder(name)
    builder.service("shop", {"stable": "shop:80", "canary": "shop:81"})
    state = builder.state("probe").route("shop", single_version("canary"))
    for check in checks:
        state.check(check)
    state.transitions([passing - 0.5], ["rollback", "done"])
    builder.state("done").route("shop", single_version("canary")).final()
    builder.state("rollback").route("shop", single_version("stable")).final(rollback=True)
    return builder.build()


async def one_wave(clock, scheduler, checks, providers):
    """Schedule *checks*, park the driver, then count what one wave creates."""
    futures = [scheduler.schedule(check, providers) for check in checks]
    await clock.advance(4.0)  # the driver and its timer are parked now
    counter = TaskCounter()
    await clock.advance(1.0)
    return futures, counter


def fetch_tasks(qualname=BATCH):
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == qualname
    ]


# -- counts ----------------------------------------------------------------


@pytest.mark.parametrize("checks, distinct", [(12, 3), (12, 1), (5, 5)])
async def test_wave_costs_one_task_and_one_call_per_distinct_question(checks, distinct):
    clock = VirtualClock()
    provider = ScriptedProvider(clock)
    scheduler = CheckScheduler(clock)
    population = [basic(f"c{i}", f"q{i % distinct}") for i in range(checks)]
    futures, counter = await one_wave(clock, scheduler, population, {"p": provider})
    results = await asyncio.gather(*futures)
    assert all(result.mapped == 1 for result in results)
    assert sorted(provider.calls) == sorted(f"q{k}" for k in range(distinct))
    # With distinct == checks nothing is shared and nothing is added: one
    # batch, whose default ``ask`` awaits a single question inline.
    assert counter.batches == 1
    assert counter.questions == (distinct if distinct > 1 else 0)
    assert counter.created == counter.batches + counter.questions + DRIVER_PARK
    assert scheduler.last_wave_size == checks


async def test_eight_strategies_probing_one_target_send_one_probe_per_wave():
    clock = VirtualClock()
    health = ScriptedProvider(clock)
    engine = Engine(clock=clock)
    engine.register_provider("health", health)
    for index in range(8):
        probes = [
            basic(f"available-{probe}", "shop:80", provider="health", repetitions=3)
            for probe in range(6)
        ]
        engine.enact(one_phase_strategy(f"rollout-{index}", probes, passing=6))
    await clock.advance(16.0)
    reports = await engine.wait_all()
    assert [report.status for report in reports] == [ExecutionStatus.COMPLETED] * 8
    assert [report.path for report in reports] == [["probe", "done"]] * 8
    assert health.calls == ["shop:80"] * 3  # 48 checks x 3 ticks asked
    await engine.shutdown()


async def test_same_query_on_two_providers_or_through_a_wrapper_is_not_shared():
    clock = VirtualClock()
    inner = StaticProvider({"q": 1.0})
    twin = StaticProvider({"q": 1.0})
    wrapped = FaultyProvider(inner, FaultSchedule(), clock)
    providers = {"inner": inner, "twin": twin, "wrapped": wrapped}
    scheduler = CheckScheduler(clock)
    population = [
        basic(f"{name}-{i}", "q", provider=name)
        for name in providers for i in range(2)
    ]
    futures, counter = await one_wave(clock, scheduler, population, providers)
    await asyncio.gather(*futures)
    assert (counter.batches, counter.questions) == (3, 0)
    assert wrapped.calls == 1
    assert inner.query_log == ["q", "q"]  # once asked directly, once through the wrapper
    assert twin.query_log == ["q"]


async def test_one_provider_under_two_names_is_one_question():
    clock = VirtualClock()
    provider = StaticProvider({"q": 1.0})
    scheduler = CheckScheduler(clock)
    population = [basic("a", "q", provider="first"), basic("b", "q", provider="second")]
    futures, counter = await one_wave(
        clock, scheduler, population, {"first": provider, "second": provider}
    )
    await asyncio.gather(*futures)
    assert (counter.batches, counter.questions) == (1, 0)
    assert provider.query_log == ["q"]


async def test_two_query_comparison_folds_only_when_both_values_are_in():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"slow": 3.0})
    scheduler = CheckScheduler(clock)
    compare = BasicCheck(
        name="compare",
        condition=MetricCondition(
            queries=(MetricQuery("a", "fast", "p"), MetricQuery("b", "slow", "p")),
            comparison=Comparison("a", ">=", "b"),
        ),
        timer=Timer(5.0, 1),
        output=OutputMapping.boolean(1.0),
    )
    futures, counter = await one_wave(
        clock, scheduler, [compare, basic("fast-only", "fast")], {"p": provider}
    )
    assert (counter.batches, counter.questions) == (1, 2)
    assert futures[1].done() and not futures[0].done()
    await clock.advance(3.0)
    compared, fast_only = await asyncio.gather(*futures)
    assert [e.at for e in fast_only.executions] == [5.0]
    assert [(e.at, e.result) for e in compared.executions] == [(8.0, 1)]


async def test_slow_query_delays_only_the_checks_that_asked_for_it():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"slow": 10.0})
    scheduler = CheckScheduler(clock)
    population = [basic("slow", "slow", repetitions=2)] + [
        basic(f"instant-{i}", f"q{i % 2}", repetitions=3) for i in range(4)
    ]
    futures = [scheduler.schedule(check, {"p": provider}) for check in population]
    await clock.advance(30.0)
    slow, *instant = await asyncio.gather(*futures)
    for result in instant:
        assert [e.at for e in result.executions] == [5.0, 10.0, 15.0]
    assert [e.at for e in slow.executions] == [15.0, 30.0]


# -- answers ---------------------------------------------------------------


async def test_provider_failure_reaches_every_asker_as_no_data():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, failing={
        "down": ProviderError("backend rebooting"),
        "broken": ConnectionError("reset by peer"),
    })
    scheduler = CheckScheduler(clock)
    seen: dict[str, tuple] = {}
    original = MetricCondition.evaluate_detailed

    async def recording(self, providers, answers=None):
        evaluation = await original(self, providers, answers)
        seen[self.queries[0].name] = (evaluation.data_available, evaluation.errors)
        return evaluation

    population = []
    for name, query in [("x", "down"), ("y", "down"), ("z", "broken")]:
        check = basic(name, query)
        check.condition.queries = (MetricQuery(name, query, "p"),)
        population.append(check)
    MetricCondition.evaluate_detailed = recording
    try:
        futures, counter = await one_wave(clock, scheduler, population, {"p": provider})
        results = await asyncio.gather(*futures)
    finally:
        MetricCondition.evaluate_detailed = original
    assert (counter.batches, counter.questions) == (1, 2)
    assert [result.aggregated for result in results] == [0, 0, 0]
    assert seen == {
        "x": (False, ("x: backend rebooting",)),
        "y": (False, ("y: backend rebooting",)),
        "z": (False, ("z: ConnectionError: reset by peer",)),
    }


async def test_unregistered_provider_fails_only_its_own_check():
    clock = VirtualClock()
    provider = StaticProvider({"q": 1.0})
    scheduler = CheckScheduler(clock)
    futures, counter = await one_wave(
        clock, scheduler,
        [basic("lost", "q", provider="nope"), basic("fine", "q")],
        {"p": provider},
    )
    with pytest.raises(CheckError, match="no provider named 'nope'"):
        await futures[0]
    assert (await futures[1]).mapped == 1
    assert (counter.batches, counter.questions) == (1, 0)


# -- ownership -------------------------------------------------------------


async def assert_nothing_left(clock, scheduler):
    await clock.advance(0.0)
    assert fetch_tasks() == [] and fetch_tasks(QUESTION) == []
    assert scheduler.pending_checks == 0
    assert clock.pending_sleepers == 0


async def test_cancelled_check_leaves_a_fetch_its_sibling_waits_on():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"q": 2.0})
    scheduler = CheckScheduler(clock)
    futures, _ = await one_wave(
        clock, scheduler, [basic("leaves", "q"), basic("stays", "q")], {"p": provider}
    )
    assert len(fetch_tasks()) == 1
    futures[0].cancel()
    await clock.advance(2.0)
    assert (await futures[1]).mapped == 1
    assert provider.calls == ["q"]
    await assert_nothing_left(clock, scheduler)


async def test_fetch_is_cancelled_when_its_last_waiting_check_is():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"hangs"})
    scheduler = CheckScheduler(clock)
    futures, _ = await one_wave(
        clock, scheduler, [basic("a", "hangs"), basic("b", "hangs")], {"p": provider}
    )
    futures[0].cancel()
    await clock.advance(0.0)
    assert len(fetch_tasks()) == 1  # b still waits
    futures[1].cancel()
    await assert_nothing_left(clock, scheduler)


async def test_preemption_cancels_the_fetches_only_the_losers_waited_on():
    """An exception check trips while its siblings wait on a hung query."""
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"hangs"})
    bad = StaticProvider({"errors": 0.0})
    engine = Engine(clock=clock)
    engine.register_provider("p", provider)
    engine.register_provider("bad", bad)
    checks = [
        tripwire("tripwire", "errors", provider="bad"),
        basic("stuck-1", "hangs", repetitions=3),
        basic("stuck-2", "hangs", repetitions=3),
    ]
    execution_id = engine.enact(one_phase_strategy("rollout", checks, passing=2))
    await clock.advance(6.0)
    report = await engine.wait(execution_id)
    assert report.path == ["probe", "rollback"]
    assert provider.calls == ["hangs"]
    await assert_nothing_left(clock, engine.scheduler)
    await engine.shutdown()


async def test_engine_cancel_takes_its_hung_fetches_along():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"hangs"})
    engine = Engine(clock=clock)
    engine.register_provider("p", provider)
    execution_id = engine.enact(
        one_phase_strategy("rollout", [basic("stuck", "hangs")], passing=1)
    )
    await clock.advance(6.0)
    assert len(fetch_tasks()) == 1
    await engine.cancel(execution_id)
    await assert_nothing_left(clock, engine.scheduler)
    await engine.shutdown()


async def test_close_cancels_hung_fetches():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, hanging={"hangs"})
    scheduler = CheckScheduler(clock)
    futures, _ = await one_wave(
        clock, scheduler,
        [basic("a", "hangs"), basic("b", "hangs"), tripwire("c", "q")],
        {"p": provider},
    )
    assert len(fetch_tasks()) == 1  # "q" answered at once
    await scheduler.close()
    assert all(future.cancelled() for future in futures)
    await assert_nothing_left(clock, scheduler)


async def test_tripped_check_does_not_cancel_the_fetch_it_shared():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"q": 1.0})
    scheduler = CheckScheduler(clock)
    trips = ExceptionCheck(
        name="trips",
        condition=MetricCondition.simple("q", "<0.5", provider="p"),
        timer=Timer(5.0, 3),
        fallback_state="rollback",
    )
    futures, counter = await one_wave(
        clock, scheduler, [trips, basic("passes", "q")], {"p": provider}
    )
    await clock.advance(1.0)
    with pytest.raises(ExceptionTriggered) as caught:
        await futures[0]
    assert caught.value.at == 6.0
    assert [e.at for e in (await futures[1]).executions] == [6.0]
    assert (counter.batches, counter.questions) == (1, 0)


# -- fetches in flight across dispatches -------------------------------------


async def test_check_due_while_its_question_is_in_flight_joins_that_fetch():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"q": 2.0})
    scheduler = CheckScheduler(clock)
    # "early" asks at 5 and waits until 7; "late" becomes due at 6.
    futures = [
        scheduler.schedule(basic("early", "q"), {"p": provider}),
        scheduler.schedule(basic("late", "q", interval=6.0), {"p": provider}),
    ]
    await clock.advance(5.5)
    assert len(fetch_tasks()) == 1
    counter = TaskCounter()
    await clock.advance(0.5)  # "late" is dispatched now
    assert counter.batches == 0
    assert counter.created == DRIVER_PARK
    await clock.advance(1.0)
    early, late = await asyncio.gather(*futures)
    assert provider.calls == ["q"]
    assert [(e.at, e.result) for e in early.executions] == [(7.0, 1)]
    assert [(e.at, e.result) for e in late.executions] == [(7.0, 1)]
    await assert_nothing_left(clock, scheduler)


async def test_answered_fetch_is_not_reused_by_the_next_tick():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"q": 2.0})
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic("twice", "q", repetitions=2), {"p": provider}),
        scheduler.schedule(basic("after", "q", interval=8.0), {"p": provider}),
    ]
    await clock.advance(20.0)
    twice, after = await asyncio.gather(*futures)
    # Asked at 5 (answered at 7), 8 (by "after", answered at 10) and 12.
    assert provider.calls == ["q", "q", "q"]
    assert [e.at for e in twice.executions] == [7.0, 14.0]
    assert [e.at for e in after.executions] == [10.0]


async def test_fetch_whose_last_owner_left_is_not_joined():
    clock = VirtualClock()
    provider = ScriptedProvider(clock, latencies={"q": 2.0})
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic("leaves", "q"), {"p": provider}),
        scheduler.schedule(basic("arrives", "q", interval=6.0), {"p": provider}),
    ]

    async def leave_at_six():
        # Parked before the driver's sleep for 6, so it wakes first there.
        await clock.sleep(6.0)
        futures[0].cancel()

    leaving = asyncio.ensure_future(leave_at_six())
    await clock.advance(6.0)
    await leaving
    await clock.advance(2.0)
    arrived = await futures[1]
    assert provider.calls == ["q", "q"]  # the cancelled fetch was not joined
    assert [(e.at, e.result) for e in arrived.executions] == [(8.0, 1)]
    await assert_nothing_left(clock, scheduler)


async def test_wrapper_and_inner_provider_in_flight_are_two_questions():
    clock = VirtualClock()
    inner = ScriptedProvider(clock, latencies={"q": 2.0})
    wrapped = FaultyProvider(inner, FaultSchedule(), clock)
    providers = {"inner": inner, "wrapped": wrapped}
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(basic("direct", "q", provider="inner"), providers),
        scheduler.schedule(
            basic("through", "q", provider="wrapped", interval=6.0), providers
        ),
        scheduler.schedule(
            basic("joins", "q", provider="inner", interval=6.0), providers
        ),
    ]
    await clock.advance(10.0)
    direct, through, joins = await asyncio.gather(*futures)
    assert wrapped.calls == 1
    assert inner.calls == ["q", "q"]  # asked directly at 5, through the wrapper at 6
    assert [e.at for e in direct.executions] == [7.0]
    assert [e.at for e in joins.executions] == [7.0]
    assert [e.at for e in through.executions] == [8.0]


class SleepingClient:
    """Stands in for HttpClient: every request takes *latency* on *clock*."""

    def __init__(self, clock, latency):
        self.clock = clock
        self.latency = latency
        self.requests: list[str] = []

    async def get(self, url):
        self.requests.append(url)
        await self.clock.sleep(self.latency)
        return SleepingClient.Response()

    async def get_many(self, urls):
        for position, url in enumerate(urls):
            yield position, await self.get(url)

    class Response:
        status = 200
        body = json.dumps({"status": "success", "data": {"value": 1.0}})

        def json(self):
            return json.loads(self.body)

    async def close(self):
        pass


async def test_rollback_in_one_strategy_does_not_hang_another_sharing_a_query():
    """A trips and cancels its check on ``q`` while B's check shares that fetch."""
    clock = VirtualClock()
    client = SleepingClient(clock, latency=0.2)
    engine = Engine(clock=clock)
    engine.register_provider("prom", HttpPrometheusProvider("http://m", client=client))
    engine.register_provider("bad", StaticProvider({"errors": 0.0}))
    rolls_back = engine.enact(one_phase_strategy("a", [
        tripwire("tripwire", "errors", provider="bad", interval=0.05),
        basic("q-check", "q", provider="prom", interval=0.025),
    ], passing=2))
    await clock.advance(0.02)
    completes = engine.enact(one_phase_strategy("b", [
        basic("q-check", "q", provider="prom", interval=0.025),
    ], passing=1))
    waiting = asyncio.ensure_future(engine.wait(completes))
    await clock.advance(3.0)
    assert (await engine.wait(rolls_back)).path == ["probe", "rollback"]
    assert waiting.done()
    report = await waiting
    assert report.status == ExecutionStatus.COMPLETED
    assert report.path == ["probe", "done"]
    assert len(client.requests) == 1  # B joined A's fetch at 0.045
    await assert_nothing_left(clock, engine.scheduler)
    await engine.shutdown()
