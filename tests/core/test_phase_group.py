"""A phase's checks are one scheduler group.

The engine schedules a state's checks with ``schedule_group``: one future
for all of them, resolved once the last completes.  So however many checks
a phase runs, it waits on one future, and finishing it costs the loop a
number of callbacks that does not grow with the phase: no future, gather
slot or driver wake per check.  Nothing here is timed; everything runs
under a :class:`VirtualClock`.
"""

import asyncio
import gc

import pytest

from repro.clock import VirtualClock
from repro.core import (
    CheckScheduler,
    Engine,
    ExceptionCheck,
    ExceptionTriggered,
    ExecutionStatus,
    MetricCondition,
    StrategyBuilder,
    Timer,
    simple_basic_check,
    single_version,
)
from repro.metrics import StaticProvider

SIZES = (1, 24, 240)


def one_phase(checks: int):
    """``probe`` runs *checks* two-tick checks at 1 s, all asking "q"."""
    builder = StrategyBuilder("group")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    state = builder.state("probe").route("svc", single_version("canary"))
    for index in range(checks):
        state.check(
            simple_basic_check(
                f"ok{index}", "q", "<5", interval=1.0, repetitions=2, provider="static"
            )
        )
    state.transitions([checks - 0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    return builder.build()


def pending_futures() -> int:
    """Futures (not tasks) alive and not done, wherever they were made."""
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, asyncio.Future)
        and not isinstance(obj, asyncio.Task)
        and not obj.done()
    )


class CallSoonCounter:
    """Counts ``call_soon`` on the running loop while armed."""

    def __init__(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.calls = 0

    def __enter__(self):
        original = self.loop.call_soon

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        self.loop.call_soon = counting
        return self

    def __exit__(self, *exc) -> None:
        del self.loop.call_soon


async def census(checks: int) -> tuple[int, int]:
    """Futures pending mid-phase, and loop callbacks from the phase's last
    tick to the end of the enactment."""
    clock = VirtualClock()
    engine = Engine(clock=clock)
    engine.register_provider("static", StaticProvider({"q": 1.0}))
    engine.bus.subscribe(lambda event: None)
    execution_id = engine.enact(one_phase(checks))
    before = pending_futures()
    await clock.advance(1.5)  # routing pushed, first ticks folded
    mid_phase = pending_futures() - before
    with CallSoonCounter() as counter:
        await clock.advance(1.0)  # last ticks, completion, transition
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.path == ["probe", "done"]
    assert engine.scheduler.pending_checks == 0
    await engine.shutdown()
    return mid_phase, counter.calls


async def test_a_phase_waits_on_one_future_and_completes_in_constant_callbacks():
    counts = {size: await census(size) for size in SIZES}
    futures = {size: count[0] for size, count in counts.items()}
    callbacks = {size: count[1] for size, count in counts.items()}
    assert futures[1] == futures[24] == futures[240], futures
    assert callbacks[1] == callbacks[24] == callbacks[240], callbacks


def tripwire(name: str, query: str) -> ExceptionCheck:
    return ExceptionCheck(
        name=name,
        condition=MetricCondition.simple(query, ">0.5", provider="p"),
        timer=Timer(1.0, 3),
        fallback_state="rollback",
    )


def passing(name: str, repetitions: int = 2):
    return simple_basic_check(name, "ok", "<5", interval=1.0, repetitions=repetitions, provider="p")


async def test_group_results_come_back_in_scheduling_order():
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    provider = StaticProvider({"ok": 1.0})
    checks = [passing(f"c{i}", repetitions=1 + i % 3) for i in range(7)]
    group = scheduler.schedule_group(checks, {"p": provider})
    await clock.advance(3.0)
    assert [result.check for result in await group] == checks
    assert scheduler.pending_checks == 0


async def test_an_empty_group_is_resolved_at_once():
    scheduler = CheckScheduler(VirtualClock())
    group = scheduler.schedule_group([], {})
    assert group.done() and group.result() == []
    assert scheduler.pending_checks == 0


async def test_first_trigger_fails_the_group_and_retires_every_sibling_at_once():
    """Two tripwires on one tick: the first fails the group; the second is
    retired with the rest in that step, so no exception goes unretrieved."""
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    provider = StaticProvider({"bad": 0.0, "ok": 1.0})
    checks = [passing("before"), tripwire("first", "bad"), tripwire("second", "bad"), passing("after")]
    group = scheduler.schedule_group(checks, {"p": provider})
    await clock.advance(1.0)
    assert group.done()
    with pytest.raises(ExceptionTriggered) as trigger:
        group.result()
    assert trigger.value.check.name == "first"
    assert scheduler.pending_checks == 0


async def test_two_triggers_on_one_tick_leave_no_unretrieved_exception(caplog):
    clock = VirtualClock()
    engine = Engine(clock=clock)
    engine.register_provider("p", StaticProvider({"bad": 0.0, "ok": 1.0}))
    builder = StrategyBuilder("two-trips")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    state = builder.state("probe").route("svc", single_version("canary"))
    for check in (passing("steady"), tripwire("first", "bad"), tripwire("second", "bad")):
        state.check(check)
    state.transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    execution_id = engine.enact(builder.build())
    await clock.advance(1.0)
    report = await engine.wait(execution_id)
    assert report.path == ["probe", "rollback"]
    assert engine.scheduler.pending_checks == 0
    await engine.shutdown()
    del report
    gc.collect()
    await asyncio.sleep(0)
    assert "never retrieved" not in caplog.text


async def test_cancelling_the_group_retires_its_checks_in_that_step():
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    provider = StaticProvider({"ok": 1.0})
    group = scheduler.schedule_group([passing("a"), passing("b")], {"p": provider})
    alone = scheduler.schedule(passing("alone"), {"p": provider})
    assert scheduler.pending_checks == 3
    group.cancel()
    assert scheduler.pending_checks == 1
    await clock.advance(2.0)
    assert group.cancelled()
    assert (await alone).mapped == 1
    assert scheduler.pending_checks == 0


async def test_a_settled_group_lets_go_of_its_checks():
    """No group ↔ entry cycle outlives the phase: the group drops its
    entries when it is settled."""
    clock = VirtualClock()
    scheduler = CheckScheduler(clock)
    provider = StaticProvider({"ok": 1.0, "bad": 0.0})
    done = scheduler.schedule_group([passing("a"), passing("b")], {"p": provider})
    failed = scheduler.schedule_group([passing("c"), tripwire("t", "bad")], {"p": provider})
    cancelled = scheduler.schedule_group([passing("d")], {"p": provider})
    cancelled.cancel()
    await clock.advance(2.0)
    for group in (done, failed, cancelled):
        assert group.done()
        assert not group.entries
    failed.exception()
