"""Tests for the engine event bus."""

import inspect
import json
import sys
from pathlib import Path

import pytest

import repro.core
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

CORE = str(Path(repro.core.__file__).parent)


def make_event(kind=EventKind.STATE_ENTERED, **data):
    return Event(kind=kind, strategy="s", at=1.0, data=data)


def test_subscribe_rejects_a_coroutine_function():
    bus = EventBus()
    seen = []

    async def async_subscriber(event):
        seen.append(event.kind)

    with pytest.raises(TypeError, match="plain callable"):
        bus.subscribe(async_subscriber)
    bus.subscribe(lambda event: seen.append(event.kind))
    bus.publish(make_event())
    assert seen == [EventKind.STATE_ENTERED]


def test_subscriber_exception_does_not_break_publishing():
    bus = EventBus()
    seen = []

    def broken(event):
        raise RuntimeError("dashboard crashed")

    bus.subscribe(broken)
    bus.subscribe(lambda event: seen.append(event))
    bus.publish(make_event())
    assert len(seen) == 1


def test_unsubscribe():
    bus = EventBus()
    seen = []
    callback = lambda event: seen.append(event)  # noqa: E731
    bus.subscribe(callback)
    bus.unsubscribe(callback)
    bus.unsubscribe(callback)  # idempotent
    bus.publish(make_event())
    assert seen == []


def test_history_and_of_kind():
    bus = EventBus()
    bus.publish(make_event(EventKind.STATE_ENTERED))
    bus.publish(make_event(EventKind.CHECK_EXECUTED))
    bus.publish(make_event(EventKind.STATE_ENTERED))
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


# -- delivery ------------------------------------------------------------------

#: (name, raises) rows: each subscriber records its name, then raises if told.
DELIVERY_TABLE = [("a", False), ("b", False), ("c", True), ("d", False), ("e", True)]


def table_subscriber(name, raises, calls):
    def subscriber(event):
        calls.append(name)
        if raises:
            raise RuntimeError(f"subscriber {name} failed")

    return subscriber


def test_delivery_table_order_errors_history(caplog):
    bus = EventBus()
    calls = []
    for name, raises in DELIVERY_TABLE:
        bus.subscribe(table_subscriber(name, raises, calls))
    event = make_event()
    bus.publish(event)

    # Every subscriber ran once, in order.
    assert calls == [name for name, _ in DELIVERY_TABLE]
    failures = [r for r in caplog.records if r.getMessage() == "event subscriber failed"]
    assert [str(r.exc_info[1]) for r in failures] == [
        "subscriber c failed",
        "subscriber e failed",
    ]
    assert bus.history == [event]


def test_sync_subscribers_have_run_when_publish_returns():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.subscribe(lambda event: seen.append(event.kind))
    event = make_event()

    assert bus.publish(event) is None
    assert seen == [event, EventKind.STATE_ENTERED]


def test_a_subscriber_leaving_mid_publish_does_not_skip_the_next():
    bus = EventBus()
    seen = []

    def once(event):
        bus.unsubscribe(once)
        seen.append(("once", event.data["n"]))

    def after(event):
        seen.append(("after", event.data["n"]))

    bus.subscribe(once)
    bus.subscribe(lambda event: seen.append(("next", event.data["n"])))
    bus.subscribe(after)
    bus.publish(make_event(n=1))
    bus.publish(make_event(n=2))
    assert seen == [
        ("once", 1), ("next", 1), ("after", 1), ("next", 2), ("after", 2)
    ]


async def count_core_coroutines(engine, seconds):
    """Advance the engine's clock by *seconds* under ``sys.setprofile``;
    returns (events published, coroutines from ``repro/core/`` started,
    by qualified name)."""
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
        await engine.clock.advance(seconds)
    finally:
        sys.setprofile(None)
    return len(engine.bus.history) - published, {
        name: len({id(frame) for frame in frames}) for name, frames in started.items()
    }


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
async def test_a_warm_tick_starts_no_coroutine_but_the_batch(chaos):
    from repro.resilience.chaos import ChaosCampaign

    engine = Engine(clock=VirtualClock())
    engine.register_provider("static", StaticProvider({"q": 1.0}))
    engine.bus.subscribe(lambda event: None)
    execution_id = engine.enact(
        ticking_strategy(), chaos=ChaosCampaign("watch") if chaos else None
    )
    await engine.clock.advance(2)  # warm: routing pushed, two ticks folded

    # With the chaos controller attached, its subscriber sees every event
    # and the engine still folds each tick without a coroutine: one batch
    # task per tick, nothing else from repro/core/.
    events, started = await count_core_coroutines(engine, 3)
    kinds = [event.kind for event in engine.bus.history[-events:]]
    assert kinds == [EventKind.CHECK_EXECUTED] * 3
    assert started == {"CheckScheduler._ask": 3}
    await engine.cancel(execution_id)
