"""One check tick: what a fold starts, when it re-arms, what it stamps.

A tick is decided, recorded, published and re-armed in one plain call.
Only a subscriber that returns a coroutine (an ``async`` one, such as the
chaos controller's) makes the scheduler await, and the check re-arms
after it.  A tick reads the clock once: the execution, its
``CHECK_EXECUTED`` event and the next deadline share that instant.
"""

import asyncio
import inspect
import sys
from pathlib import Path

import repro.core
from repro.clock import VirtualClock
from repro.core import (
    CheckScheduler,
    Engine,
    EventKind,
    StrategyBuilder,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.metrics import StaticProvider

CORE = str(Path(repro.core.__file__).parent)

#: The driver's park and the batch task are per wave, not per fold.
PER_WAVE = {
    "CheckScheduler._drive",
    "CheckScheduler._wait_for_wake",
    "CheckScheduler._ask",
}


def wave_strategy(checks=4, interval=1, repetitions=10):
    """One state whose *checks* all ask one question at one interval."""
    builder = StrategyBuilder("wave")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    state = builder.state("canary").route("svc", canary_split("stable", "canary", 5.0))
    for index in range(checks):
        state.check(
            simple_basic_check(
                f"ok{index}", "q", "<5", interval=interval,
                repetitions=repetitions, provider="static",
            )
        )
    state.transitions([0], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    return builder.build()


async def started_engine(strategy, *subscribers):
    engine = Engine(clock=VirtualClock())
    engine.register_provider("static", StaticProvider({"q": 1.0}))
    for subscriber in subscribers:
        engine.bus.subscribe(subscriber)
    execution_id = engine.enact(strategy)
    await asyncio.sleep(0)
    return engine, execution_id


async def test_a_wave_with_sync_subscribers_folds_without_a_coroutine():
    engine, execution_id = await started_engine(wave_strategy(), lambda event: None)
    await engine.clock.advance(2)  # warm: routing pushed, two waves folded
    started: dict[str, list] = {}  # frames kept alive, so ids stay distinct

    def profile(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_flags & inspect.CO_COROUTINE
            and code.co_filename.startswith(CORE)
        ):
            started.setdefault(code.co_qualname, []).append(frame)

    published = len(engine.bus.history)
    sys.setprofile(profile)
    try:
        await engine.clock.advance(1)
    finally:
        sys.setprofile(None)
    kinds = [event.kind for event in engine.bus.history[published:]]
    assert kinds == [EventKind.CHECK_EXECUTED] * 4
    assert set(started) <= PER_WAVE, sorted(set(started) - PER_WAVE)
    await engine.cancel(execution_id)


async def test_a_check_re_arms_only_after_its_async_subscriber_finished():
    release = asyncio.Event()
    seen = []

    async def slow(event):
        if event.kind is EventKind.CHECK_EXECUTED:
            seen.append(("slow", event.at))
            await release.wait()

    def after(event):
        if event.kind is EventKind.CHECK_EXECUTED:
            seen.append(("after", event.at))

    engine, execution_id = await started_engine(wave_strategy(checks=1), slow, after)
    await engine.clock.advance(5)
    # The tick at t=1 is still being delivered, so the check has not
    # re-armed: no tick at t=2..5, and the later subscriber waits too.
    assert seen == [("slow", 1.0)]
    release.set()
    await engine.clock.advance(0)
    # Re-armed at 1 + 1, already past: the next tick runs at once.
    assert seen == [("slow", 1.0), ("after", 1.0), ("slow", 5.0), ("after", 5.0)]
    executed = engine.bus.of_kind(EventKind.CHECK_EXECUTED)
    assert [("slow", event.at) for event in executed] == seen[::2]
    await engine.cancel(execution_id)


async def test_check_executed_is_stamped_with_the_tick_and_re_arms_from_it():
    async def slow(event):
        if event.kind is EventKind.CHECK_EXECUTED:
            await engine.clock.sleep(0.25)

    engine, execution_id = await started_engine(wave_strategy(checks=1), slow)
    await engine.clock.advance(4.5)
    # The subscriber's own quarter second does not stretch the interval.
    executed = engine.bus.of_kind(EventKind.CHECK_EXECUTED)
    assert [event.at for event in executed] == [1.0, 2.0, 3.0, 4.0]
    await engine.cancel(execution_id)


async def test_execution_at_is_the_tick_and_the_next_deadline_is_at_plus_interval():
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    observed = []

    async def observer(check, execution):
        observed.append(execution.at)
        await clock.sleep(0.5)

    future = scheduler.schedule(
        simple_basic_check("c", "q", "<5", interval=2.0, repetitions=3, provider="p"),
        {"p": StaticProvider({"q": 1.0})},
        observer=observer,
    )
    await clock.advance(10.0)
    result = await future
    assert [execution.at for execution in result.executions] == [2.0, 4.0, 6.0]
    assert observed == [2.0, 4.0, 6.0]
    await scheduler.close()
