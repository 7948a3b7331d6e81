"""One check tick: what a fold starts, when it re-arms, what it stamps.

A tick is decided, recorded, published and re-armed in one plain call:
subscribers and observers are plain callables.  A tick reads the clock
once: the execution, its ``CHECK_EXECUTED`` event and the next deadline
share that instant.
"""

import asyncio
import inspect
import sys
from pathlib import Path

import pytest

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
from tests.core.test_scheduler_wave import ScriptedProvider

CORE = str(Path(repro.core.__file__).parent)

#: The batch task is per wave, not per fold.
PER_WAVE = {"CheckScheduler._ask"}


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


async def test_check_executed_is_stamped_with_the_tick_and_re_arms_from_it():
    stamps = []

    def stamp(event):
        if event.kind is EventKind.CHECK_EXECUTED:
            stamps.append((event.at, engine.clock.now()))

    engine, execution_id = await started_engine(wave_strategy(checks=1), stamp)
    await engine.clock.advance(4.5)
    # Published in the tick, stamped with its instant, re-armed from it.
    assert stamps == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    await engine.cancel(execution_id)


async def test_execution_at_is_the_tick_and_the_next_deadline_is_at_plus_interval():
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    observed = []

    def observer(check, execution):
        observed.append((execution.at, clock.now()))

    future = scheduler.schedule(
        simple_basic_check("c", "q", "<5", interval=2.0, repetitions=3, provider="p"),
        {"p": StaticProvider({"q": 1.0})},
        observer=observer,
    )
    await clock.advance(10.0)
    result = await future
    assert [execution.at for execution in result.executions] == [2.0, 4.0, 6.0]
    assert observed == [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]
    await scheduler.close()


async def test_an_execution_keeps_the_deadline_it_was_armed_for():
    clock = VirtualClock()
    engine = Engine(clock=clock)
    engine.register_provider("static", ScriptedProvider(clock, latencies={"q": 0.3}))
    execution_id = engine.enact(wave_strategy(checks=2, interval=1, repetitions=3))
    await clock.advance(10)
    report = await engine.wait(execution_id)
    assert report.path == ["canary", "done"]
    executed = engine.bus.of_kind(EventKind.CHECK_EXECUTED)
    assert len(executed) == 6
    for event in executed:
        assert event.at - event.data["due"] == pytest.approx(0.3)
    # Re-armed from the tick, so each deadline is the last tick plus 1 s.
    assert sorted({event.data["due"] for event in executed}) == pytest.approx([1.0, 2.3, 3.6])
