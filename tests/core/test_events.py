"""Tests for the engine event bus."""

import asyncio
import json
import sys

import pytest

from repro.clock import VirtualClock
from repro.core import (
    Engine,
    Event,
    EventBus,
    EventKind,
    StrategyBuilder,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.metrics import StaticProvider


def make_event(kind=EventKind.STATE_ENTERED, **data):
    return Event(kind=kind, strategy="s", at=1.0, data=data)


async def test_publish_reaches_sync_and_async_subscribers():
    bus = EventBus()
    seen_sync, seen_async = [], []
    bus.subscribe(lambda event: seen_sync.append(event.kind))

    async def async_subscriber(event):
        seen_async.append(event.kind)

    bus.subscribe(async_subscriber)
    await bus.publish(make_event())
    assert seen_sync == [EventKind.STATE_ENTERED]
    assert seen_async == [EventKind.STATE_ENTERED]


async def test_subscriber_exception_does_not_break_publishing():
    bus = EventBus()
    seen = []

    def broken(event):
        raise RuntimeError("dashboard crashed")

    bus.subscribe(broken)
    bus.subscribe(lambda event: seen.append(event))
    await bus.publish(make_event())
    assert len(seen) == 1


async def test_unsubscribe():
    bus = EventBus()
    seen = []
    callback = lambda event: seen.append(event)  # noqa: E731
    bus.subscribe(callback)
    bus.unsubscribe(callback)
    bus.unsubscribe(callback)  # idempotent
    await bus.publish(make_event())
    assert seen == []


async def test_history_and_of_kind():
    bus = EventBus()
    await bus.publish(make_event(EventKind.STATE_ENTERED))
    await bus.publish(make_event(EventKind.CHECK_EXECUTED))
    await bus.publish(make_event(EventKind.STATE_ENTERED))
    assert len(bus.history) == 3
    assert len(bus.of_kind(EventKind.STATE_ENTERED)) == 2
    assert len(bus.of_kind(EventKind.STRATEGY_FAILED)) == 0


def test_event_json_round_trip():
    event = Event(
        kind=EventKind.STATE_COMPLETED,
        strategy="fastsearch",
        at=12.5,
        data={"outcome": 4, "next": "c"},
    )
    # The one wire form: /api/events serves it, the CLI prints it.
    assert json.loads(json.dumps(event.to_wire())) == {
        "kind": "state_completed",
        "strategy": "fastsearch",
        "at": 12.5,
        "data": {"outcome": 4, "next": "c"},
    }


# -- sync-first delivery ------------------------------------------------------

#: (name, kind) rows: each subscriber records its name, then behaves as its
#: kind says.
DELIVERY_TABLE = [
    ("a", "sync"),
    ("b", "async"),
    ("c", "sync"),
    ("d", "raising sync"),
    ("e", "raising async"),
]


def table_subscriber(name, kind, calls):
    def record():
        calls.append(name)
        if kind.startswith("raising"):
            raise RuntimeError(f"subscriber {name} failed")

    if kind.endswith("async"):

        async def subscriber(event):
            await asyncio.sleep(0)  # really suspend
            record()

    else:

        def subscriber(event):
            record()

    return subscriber


async def test_delivery_table_order_errors_history(caplog):
    bus = EventBus()
    calls = []
    for name, kind in DELIVERY_TABLE:
        bus.subscribe(table_subscriber(name, kind, calls))
    event = make_event()

    delivery = bus.publish(event)
    # The first coroutine hands the rest to the returned awaitable.
    assert calls == ["a"]
    await delivery

    # Every subscriber ran once, in order.
    assert calls == [name for name, _ in DELIVERY_TABLE]
    failures = [r for r in caplog.records if r.getMessage() == "event subscriber failed"]
    assert [str(r.exc_info[1]) for r in failures] == [
        "subscriber d failed",
        "subscriber e failed",
    ]
    assert bus.history == [event]


async def test_sync_subscribers_have_run_when_publish_returns():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.subscribe(lambda event: seen.append(event.kind))
    event = make_event()

    delivery = bus.publish(event)
    assert seen == [event, EventKind.STATE_ENTERED]
    assert not asyncio.iscoroutine(delivery)
    await delivery
    await delivery  # already done, so awaiting again is harmless
    assert seen == [event, EventKind.STATE_ENTERED]


async def test_a_subscriber_leaving_mid_publish_does_not_skip_the_next():
    bus = EventBus()
    seen = []

    def once(event):
        bus.unsubscribe(once)
        seen.append(("once", event.data["n"]))

    async def after(event):
        seen.append(("after", event.data["n"]))

    bus.subscribe(once)
    bus.subscribe(lambda event: seen.append(("next", event.data["n"])))
    bus.subscribe(after)
    await bus.publish(make_event(n=1))
    await bus.publish(make_event(n=2))
    assert seen == [
        ("once", 1), ("next", 1), ("after", 1), ("next", 2), ("after", 2)
    ]


async def count_coroutine_path_entries(engine, seconds):
    """Advance the engine's clock by *seconds* under ``sys.setprofile``;
    returns (events published, bus coroutine-path coroutines entered)."""
    path = EventBus._deliver_rest.__code__
    frames = []  # kept alive, so distinct coroutines never share an id

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is path:
            frames.append(frame)

    published = len(engine.bus.history)
    sys.setprofile(profile)
    try:
        await engine.clock.advance(seconds)
    finally:
        sys.setprofile(None)
    return len(engine.bus.history) - published, len({id(f) for f in frames})


def ticking_strategy():
    builder = StrategyBuilder("ticking")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("ok", "q", "<5", interval=1, repetitions=10, provider="static")
    ).transitions([0], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    return builder.build()


@pytest.mark.parametrize("chaos", [False, True], ids=["sync-only", "chaos-attached"])
async def test_a_warm_tick_takes_the_coroutine_path_only_for_async_subscribers(chaos):
    from repro.resilience.chaos import ChaosCampaign

    engine = Engine(clock=VirtualClock())
    engine.register_provider("static", StaticProvider({"q": 1.0}))
    engine.bus.subscribe(lambda event: None)
    execution_id = engine.enact(
        ticking_strategy(), chaos=ChaosCampaign("watch") if chaos else None
    )
    await engine.clock.advance(2)  # warm: routing pushed, two ticks folded

    events, entered = await count_coroutine_path_entries(engine, 3)
    kinds = [event.kind for event in engine.bus.history[-events:]]
    assert kinds == [EventKind.CHECK_EXECUTED] * 3
    assert entered == (events if chaos else 0)
    await engine.cancel(execution_id)
