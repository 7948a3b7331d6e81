"""Unit tests for the shared check scheduler.

Behavioral coverage for :class:`repro.core.scheduler.CheckScheduler` —
timer fan-in (many checks, one clock timer), cancellation/preemption,
completion callbacks, and the timer's lifecycle.  Equivalence with the per-task
reference runner is property-tested in
``tests/property/test_scheduler_equivalence.py``.
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
from repro.metrics import StaticProvider


def make_check(name="c", interval=5.0, repetitions=4, query="q"):
    return simple_basic_check(
        name, query, "<5", interval=interval, repetitions=repetitions,
        provider="static",
    )


async def test_many_idle_checks_park_one_timer():
    """N scheduled checks between ticks cost one clock timer, not N."""
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(make_check(name=f"c{i}"), providers)
        for i in range(50)
    ]
    await asyncio.sleep(0)
    await asyncio.sleep(0)
    assert scheduler.pending_checks == 50
    assert clock.pending_sleepers == 1  # the scheduler's one timer
    await clock.advance(20.0)
    results = await asyncio.gather(*futures)
    assert all(result.mapped == 1 for result in results)
    assert scheduler.pending_checks == 0


async def test_interleaved_intervals_tick_in_deadline_order():
    clock = VirtualClock()
    provider = StaticProvider({"fast": 1.0, "slow": 1.0})
    providers = {"static": provider}
    scheduler = CheckScheduler(clock)
    fast = scheduler.schedule(
        make_check("fast", interval=2.0, repetitions=3, query="fast"), providers
    )
    slow = scheduler.schedule(
        make_check("slow", interval=5.0, repetitions=1, query="slow"), providers
    )
    await asyncio.sleep(0)
    await clock.advance(6.0)
    fast_result, slow_result = await asyncio.gather(fast, slow)
    assert [e.at for e in fast_result.executions] == [2.0, 4.0, 6.0]
    assert [e.at for e in slow_result.executions] == [5.0]
    assert provider.query_log == ["fast", "fast", "slow", "fast"]


async def test_cancelling_future_deschedules_check():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    doomed = scheduler.schedule(make_check("doomed"), providers)
    survivor = scheduler.schedule(make_check("survivor"), providers)
    await asyncio.sleep(0)
    doomed.cancel()
    await asyncio.sleep(0)
    assert scheduler.pending_checks == 1
    await clock.advance(20.0)
    result = await survivor
    assert result.mapped == 1
    with pytest.raises(asyncio.CancelledError):
        await doomed


async def test_exception_check_fails_only_its_own_future():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"bad": 99.0, "q": 1.0})}
    scheduler = CheckScheduler(clock)
    tripwire = scheduler.schedule(
        ExceptionCheck(
            name="tripwire",
            condition=MetricCondition.simple("bad", "<5", provider="static"),
            timer=Timer(3.0, 10),
            fallback_state="rollback",
        ),
        providers,
    )
    steady = scheduler.schedule(make_check("steady"), providers)
    await asyncio.sleep(0)
    await clock.advance(20.0)
    with pytest.raises(ExceptionTriggered) as exc_info:
        await tripwire
    assert exc_info.value.at == 3.0
    assert (await steady).mapped == 1


async def test_on_complete_runs_before_future_resolves():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    order = []

    def on_complete(result):
        order.append(("callback", result.mapped))

    future = scheduler.schedule(
        make_check(interval=1.0, repetitions=1), providers, on_complete=on_complete
    )
    future.add_done_callback(lambda _: order.append(("resolved",)))
    await asyncio.sleep(0)
    await clock.advance(1.0)
    await future
    assert order == [("callback", 1), ("resolved",)]


async def test_an_idle_scheduler_holds_no_timer_and_no_task():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    tasks = asyncio.all_tasks()
    first = scheduler.schedule(make_check(interval=1.0, repetitions=1), providers)
    assert clock.pending_sleepers == 1
    await clock.advance(1.0)
    await first
    assert scheduler._timer is None
    assert clock.pending_sleepers == 0  # nothing parked while idle
    assert asyncio.all_tasks() == tasks
    second = scheduler.schedule(make_check(interval=2.0, repetitions=2), providers)
    await clock.advance(4.0)
    assert (await second).aggregated == 2
    assert scheduler._timer is None and asyncio.all_tasks() == tasks
    await scheduler.close()


async def test_close_cancels_everything():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    futures = [scheduler.schedule(make_check(f"c{i}"), providers) for i in range(3)]
    await asyncio.sleep(0)
    await scheduler.close()
    assert scheduler.pending_checks == 0
    for future in futures:
        assert future.cancelled()


async def test_observer_failure_fails_that_check():
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)

    def observer(check, execution):
        raise RuntimeError("observer broke")

    broken = scheduler.schedule(make_check(), providers, observer=observer)
    healthy = scheduler.schedule(make_check("ok"), providers)
    await asyncio.sleep(0)
    await clock.advance(20.0)
    with pytest.raises(RuntimeError):
        await broken
    assert (await healthy).mapped == 1


async def test_same_deadline_checks_dispatch_as_one_wave():
    """Checks sharing a deadline drain from the heap as a single wave."""
    clock = VirtualClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    futures = [
        scheduler.schedule(make_check(name=f"c{i}", repetitions=2), providers)
        for i in range(8)
    ]
    await asyncio.sleep(0)
    await clock.advance(5.0)
    assert scheduler.tick_waves >= 1
    assert scheduler.last_wave_size == 8
    await clock.advance(5.0)
    results = await asyncio.gather(*futures)
    assert all(result.mapped == 1 for result in results)


async def test_schedule_subscribes_queries_to_plan_aware_providers():
    """Arming a check pre-registers its queries with provider plans."""
    from repro.metrics import LocalPrometheusProvider, MetricStore, planner_for

    clock = VirtualClock(start=0.0)
    store = MetricStore()
    for t in range(30):
        store.record("hits_total", float(t), float(t), {"instance": "a"})
    provider = LocalPrometheusProvider(store, clock=clock)
    scheduler = CheckScheduler(clock)
    check = simple_basic_check(
        "c", "rate(hits_total[10s])", "<5", interval=5.0, repetitions=1,
        provider="prom",
    )
    roots_before = planner_for(store).cache_info()["roots"]
    future = scheduler.schedule(check, {"prom": provider})
    assert planner_for(store).cache_info()["roots"] == roots_before + 1
    await asyncio.sleep(0)
    await clock.advance(5.0)
    await future


class CountingClock(VirtualClock):
    """A VirtualClock that counts the timers set on it."""

    def __init__(self):
        super().__init__()
        self.timers = 0

    def call_at(self, when, callback):
        self.timers += 1
        return super().call_at(when, callback)


async def test_only_an_earlier_deadline_moves_the_timer():
    clock = CountingClock()
    providers = {"static": StaticProvider({"q": 1.0})}
    scheduler = CheckScheduler(clock)
    first = scheduler.schedule(make_check("first", interval=5.0, repetitions=1), providers)
    assert (clock.timers, scheduler._timer_at) == (1, 5.0)
    later = scheduler.schedule(make_check("later", interval=8.0, repetitions=1), providers)
    assert (clock.timers, scheduler._timer_at) == (1, 5.0)  # t=8 is after t=5
    earlier = scheduler.schedule(make_check("earlier", interval=2.0, repetitions=1), providers)
    assert (clock.timers, scheduler._timer_at) == (2, 2.0)  # moved to t=2
    assert clock.pending_sleepers == 1
    await clock.advance(10.0)
    results = await asyncio.gather(first, later, earlier)
    assert [result.executions[0].at for result in results] == [5.0, 8.0, 2.0]
    await scheduler.close()
