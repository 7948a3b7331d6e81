"""Tests for strategy enactment: the engine and execution machinery."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import (
    Engine,
    EventKind,
    ExceptionCheck,
    ExecutionStatus,
    MetricCondition,
    RecordingController,
    StrategyBuilder,
    Timer,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.metrics import StaticProvider


def linear_strategy(name="linear"):
    """a(2s) -> b(3s) -> done, no checks."""
    builder = StrategyBuilder(name)
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("a").route("svc", canary_split("stable", "canary", 5.0)).dwell(2).goto("b")
    builder.state("b").route("svc", canary_split("stable", "canary", 50.0)).dwell(3).goto("done")
    builder.state("done").route("svc", single_version("canary")).final()
    return builder.build()


def checked_strategy(provider_values, threshold=None):
    """One canary state whose single check decides done vs rollback."""
    builder = StrategyBuilder("checked")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check(
            "errors", "q", "<5", interval=1, repetitions=4,
            threshold=threshold, provider="static",
        )
    ).transitions([0], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    return builder.build()


async def start_engine(strategy, providers=None, max_visits=None):
    clock = VirtualClock()
    engine = Engine(clock=clock)
    for name, provider in (providers or {}).items():
        engine.register_provider(name, provider)
    execution_id = engine.enact(strategy, max_visits=max_visits)
    await asyncio.sleep(0)
    return engine, clock, execution_id


async def test_linear_strategy_walks_all_states():
    engine, clock, execution_id = await start_engine(linear_strategy())
    await clock.advance(5)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.path == ["a", "b", "done"]
    assert report.duration == 5.0
    assert report.delay(engine.executions[execution_id].strategy) == 0.0


async def test_routing_applied_per_state():
    engine, clock, execution_id = await start_engine(linear_strategy())
    await clock.advance(5)
    await engine.wait(execution_id)
    controller = engine.controller
    assert isinstance(controller, RecordingController)
    assert len(controller.applied) == 3
    percentages = [
        next(s.percentage for s in config.splits if s.version == "canary")
        for _, config, _ in controller.applied
    ]
    assert percentages == [5.0, 50.0, 100.0]
    # Endpoints resolved from the strategy's static configuration.
    _, _, endpoints = controller.applied[0]
    assert endpoints == {"stable": "h:1", "canary": "h:2"}


async def test_check_pass_leads_to_done():
    strategy = checked_strategy(None)
    engine, clock, execution_id = await start_engine(
        strategy, {"static": StaticProvider({"q": 1.0})}
    )
    await clock.advance(4)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.path == ["canary", "done"]
    assert report.visits[0].outcome == 1


async def test_check_failure_leads_to_rollback():
    strategy = checked_strategy(None)
    engine, clock, execution_id = await start_engine(
        strategy, {"static": StaticProvider({"q": 100.0})}
    )
    await clock.advance(4)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.path == ["canary", "rollback"]
    assert report.visits[0].outcome == 0


async def test_exception_check_preempts_state():
    builder = StrategyBuilder("exceptional")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        ExceptionCheck(
            "guard",
            MetricCondition.simple("q", "<5", provider="static"),
            Timer(1, 10),
            fallback_state="rollback",
        )
    ).transitions([5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    strategy = builder.build()

    # Fails on the third execution (t=3): rollback long before t=10.
    provider = StaticProvider({"q": [1.0, 1.0, 99.0]})
    engine, clock, execution_id = await start_engine(strategy, {"static": provider})
    await clock.advance(3)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.duration == 3.0  # preempted, not the nominal 10s
    assert report.visits[0].via_exception
    assert report.visits[0].next_state == "rollback"
    triggered = engine.bus.of_kind(EventKind.EXCEPTION_TRIGGERED)
    assert len(triggered) == 1
    assert triggered[0].data["check"] == "guard"


async def test_self_loop_reexecutes_state_with_fresh_timers():
    builder = StrategyBuilder("loop")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    # Outcome 0 (fail) -> stay in canary; outcome 1 -> done.
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("c", "q", "<5", interval=1, repetitions=2, provider="static")
    ).transitions([0], ["canary", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    strategy = builder.build()

    # First two executions fail -> re-execute state; next two pass -> done.
    provider = StaticProvider({"q": [9.0, 9.0, 1.0, 1.0]})
    engine, clock, execution_id = await start_engine(strategy, {"static": provider})
    await clock.advance(4)
    report = await engine.wait(execution_id)
    assert report.path == ["canary", "canary", "done"]
    assert report.duration == 4.0
    # Routing is re-applied on re-entry.
    assert len(engine.controller.applied) == 3


async def test_max_visits_guards_against_infinite_loops():
    builder = StrategyBuilder("infinite")
    builder.service("svc", {"v": "h:1"})
    builder.state("spin").dwell(1).transitions([], ["spin"])
    builder.state("done").final()
    builder_strategy = builder
    with pytest.raises(Exception):
        builder_strategy.build()  # unreachable "done" is already invalid

    # Build a reachable-but-looping strategy instead: outcome always stays.
    builder = StrategyBuilder("infinite")
    builder.service("svc", {"v": "h:1"})
    builder.state("spin").dwell(1).transitions([100], ["spin", "done"])
    builder.state("done").final()
    strategy = builder.build()

    engine, clock, execution_id = await start_engine(strategy, max_visits=5)
    await clock.advance(10)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.FAILED
    assert "5" in report.error


async def test_multiple_checks_weighted_outcome():
    builder = StrategyBuilder("weighted")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    # Passing check (weight 3) + failing check (weight 1): outcome 3.
    builder.state("s").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("good", "good_q", "<5", 1, 2, provider="static"), weight=3.0
    ).check(
        simple_basic_check("bad", "bad_q", "<5", 1, 2, provider="static"), weight=1.0
    ).transitions([2], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    strategy = builder.build()

    provider = StaticProvider({"good_q": 1.0, "bad_q": 9.0})
    engine, clock, execution_id = await start_engine(strategy, {"static": provider})
    await clock.advance(2)
    report = await engine.wait(execution_id)
    assert report.visits[0].outcome == 3
    assert report.path == ["s", "done"]


async def test_parallel_executions_are_independent():
    engine = Engine(clock=VirtualClock())
    clock = engine.clock
    ids = [engine.enact(linear_strategy(f"s{i}")) for i in range(10)]
    await asyncio.sleep(0)
    await clock.advance(5)
    reports = await engine.wait_all()
    assert len(reports) == 10
    assert all(report.status is ExecutionStatus.COMPLETED for report in reports)
    assert {report.execution_id for report in reports} == set(ids)


async def test_engine_events_cover_lifecycle():
    engine, clock, execution_id = await start_engine(linear_strategy())
    await clock.advance(5)
    await engine.wait(execution_id)
    kinds = [event.kind for event in engine.bus.history]
    assert kinds[0] is EventKind.STRATEGY_STARTED
    assert kinds[-1] is EventKind.STRATEGY_COMPLETED
    assert kinds.count(EventKind.STATE_ENTERED) == 3
    assert kinds.count(EventKind.ROUTING_APPLIED) == 3


async def test_a_chaos_campaign_that_fails_to_attach_claims_nothing():
    from repro.resilience.chaos import ChaosCampaign, ChaosError, FaultSpec

    engine = Engine(clock=VirtualClock())
    subscribers = tuple(engine.bus._subscribers)
    campaign = ChaosCampaign(
        "c", specs=[FaultSpec(name="f", target="controller", phases=("nowhere",))]
    )
    with pytest.raises(ChaosError):
        engine.enact(linear_strategy("shop"), allow_findings=True, chaos=campaign)
    assert engine.executions == {}
    assert engine.bus._subscribers == subscribers
    execution_id = engine.enact(linear_strategy("shop"))
    await asyncio.sleep(0)
    await engine.clock.advance(5)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED


async def test_non_exclusive_strategies_still_share_services():
    engine = Engine(clock=VirtualClock())
    clock = engine.clock
    for i in range(3):
        engine.enact(linear_strategy(f"shared-{i}"))
    await asyncio.sleep(0)
    await clock.advance(5)
    reports = await engine.wait_all()
    assert all(r.status is ExecutionStatus.COMPLETED for r in reports)


async def test_scheduled_execution_can_be_cancelled_while_pending():
    # Cancelled before its task first runs: the execution never left PENDING.
    engine = Engine(clock=VirtualClock())
    execution_id = engine.enact(linear_strategy())
    assert engine.execution(execution_id).status is ExecutionStatus.PENDING
    await engine.cancel(execution_id)
    assert engine.execution(execution_id).status is ExecutionStatus.FAILED


async def test_pause_holds_before_next_state():
    engine, clock, execution_id = await start_engine(linear_strategy())
    engine.pause(execution_id)
    # State a (2s) completes, then the execution holds before b.
    await clock.advance(2)
    execution = engine.execution(execution_id)
    assert execution.status is ExecutionStatus.PAUSED
    assert execution.visits[-1].state == "a"
    # Time passes; nothing further happens while paused.
    await clock.advance(10)
    assert execution.status is ExecutionStatus.PAUSED
    assert len(execution.visits) == 1
    # Resume: the remaining states run to completion.
    engine.resume(execution_id)
    await clock.advance(3)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.path == ["a", "b", "done"]
    # The pause shows up as enactment delay.
    assert report.duration == 15.0
    kinds = [event.kind for event in engine.bus.history]
    assert EventKind.STRATEGY_PAUSED in kinds
    assert EventKind.STRATEGY_RESUMED in kinds


async def test_pause_resume_idempotent():
    engine, clock, execution_id = await start_engine(linear_strategy())
    execution = engine.execution(execution_id)
    engine.pause(execution_id)
    engine.pause(execution_id)
    assert execution.paused
    engine.resume(execution_id)
    engine.resume(execution_id)
    assert not execution.paused
    await clock.advance(5)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.duration == 5.0


async def test_pause_unknown_execution_raises():
    engine = Engine(clock=VirtualClock())
    with pytest.raises(KeyError):
        engine.pause("ghost")


async def test_engine_cancel_execution():
    engine, clock, execution_id = await start_engine(linear_strategy())
    await engine.cancel(execution_id)
    execution = engine.execution(execution_id)
    assert execution.status is ExecutionStatus.FAILED


async def test_engine_unknown_execution_lookup():
    engine = Engine(clock=VirtualClock())
    with pytest.raises(KeyError):
        engine.execution("ghost")


async def test_engine_wait_all_empty():
    engine = Engine(clock=VirtualClock())
    assert await engine.wait_all() == []


async def test_engine_shutdown_cancels_and_closes_providers():
    closed = []

    class ClosingProvider(StaticProvider):
        async def close(self):
            closed.append(True)

    engine = Engine(clock=VirtualClock())
    engine.register_provider("static", ClosingProvider({"q": 1.0}))
    engine.enact(linear_strategy())
    await asyncio.sleep(0)
    await engine.shutdown()
    assert closed == [True]


async def test_check_events_published_per_execution():
    strategy = checked_strategy(None)
    engine, clock, execution_id = await start_engine(
        strategy, {"static": StaticProvider({"q": 1.0})}
    )
    await clock.advance(4)
    await engine.wait(execution_id)
    executed = engine.bus.of_kind(EventKind.CHECK_EXECUTED)
    assert len(executed) == 4
    completed = engine.bus.of_kind(EventKind.CHECK_COMPLETED)
    assert len(completed) == 1
    assert completed[0].data["aggregated"] == 4
    assert completed[0].data["mapped"] == 1
