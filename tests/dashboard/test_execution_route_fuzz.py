"""Generated hostile requests for the engine API's execution lifecycle.

Hypothesis builds ``GET``/``DELETE /api/executions/{id}``, ``POST
.../pause``, ``POST .../resume`` and ``GET /api/events?since=`` requests
against an engine holding one execution parked mid-phase (its checks a
live scheduler group, their question hung at the provider) and one that
has ended.  Ids are the live id, the ended id, unknown ids, broken and
valid percent escapes, ``%2F``, empty and 5,000 characters; ``since`` is
``NaN``, ``-1``, ``1e309``, 5,000 digits and their neighbours.

Every answer is below 500 and arrives before a deadline, and the
connection then serves a valid request.  A 4xx leaves the execution list
and the scheduler's pending checks as they were; a 200 cancel leaves no
check scheduled and no batch task running.
"""

import asyncio
from urllib.parse import quote

from hypothesis import example, given, settings, strategies as st

from repro.clock import VirtualClock
from repro.core import Engine, ExecutionStatus, StrategyBuilder, simple_basic_check, single_version
from repro.dashboard import EngineApiServer
from repro.metrics import MetricsProvider, StaticProvider

DEADLINE = 5.0
CHECKS = 3

#: Stand-ins replaced, at request time, by the current executions' ids
#: (percent-encoded, or raw: an id holds a ``#``).
LIVE, ENDED, LIVE_RAW = "<live>", "<ended>", "<live-raw>"

FRAGMENTS = [
    LIVE, ENDED, "%", "%2", "%zz", "%C3", "%ff%fe", "%ED%A0%80", "%00", "%25", "%23",
    "%2F", "%2f", "/", "..", "%2E%2E", "+", "%20", "nope", "live", "ended", "#", "?", "",
]
ID_CHARS = "abcxyz019-._~!$'()*,;:@%+=&#"

known = st.sampled_from([LIVE, ENDED, LIVE_RAW, LIVE + "%2F", "%2F" + LIVE, LIVE + "%", ENDED + "x"])
ids = st.one_of(
    known,
    known,  # weighted: most requests should reach an execution
    known,
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(alphabet=ID_CHARS, max_size=8)),
        max_size=4,
    ).map("".join),
    st.sampled_from(["x" * 5000, "%41" * 1667, quote("é" * 2500)]),
)
sinces = st.one_of(
    st.sampled_from(
        ["NaN", "nan", "-1", "-0", "1e309", "9" * 5000, "9" * 4000, "0", "1", "", "%20",
         "+5", "%203", "1_0", "0x10", "1.5", "inf", "%00", "%ff"]
    ),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
)
lifecycle = st.one_of(
    st.tuples(
        st.sampled_from([("GET", ""), ("DELETE", ""), ("POST", "/pause"), ("POST", "/resume")]),
        ids,
    ).map(lambda pair: (pair[0][0], "/api/executions/" + pair[1] + pair[0][1])),
    sinces.map(lambda since: ("GET", "/api/events?since=" + since)),
)


#: Requests every run sends first: each route on each execution, and the
#: ``since`` values a parser gets wrong.
FIXED = [
    (method, f"/api/executions/{known}{suffix}")
    for known in (LIVE, ENDED, LIVE_RAW)
    for method, suffix in (("GET", ""), ("POST", "/pause"), ("POST", "/resume"), ("DELETE", ""))
] + [("GET", f"/api/events?since={since}") for since in ("NaN", "-1", "1e309", "9" * 5000)]


def example_each(requests):
    def decorate(test):
        for request in reversed(requests):
            test = example(request=request)(test)
        return test

    return decorate


class HungProvider(MetricsProvider):
    """Never answers: a check that asks it stays mid-evaluation."""

    async def query(self, query: str) -> float | None:
        await asyncio.Event().wait()


def one_phase(name: str, provider: str, interval: float):
    builder = StrategyBuilder(name)
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    state = builder.state("probe").route("svc", single_version("canary"))
    for index in range(CHECKS):
        state.check(
            simple_basic_check(f"c{index}", "q", "<5", interval=interval, repetitions=1, provider=provider)
        )
    state.transitions([CHECKS - 0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(rollback=True)
    return builder.build()


async def park_live(engine: Engine) -> str:
    """Enact a strategy and advance until its phase's checks wait on a hung
    question: one group of CHECKS checks, one batch task."""
    execution_id = engine.enact(one_phase("live", "hung", interval=1.0))
    await engine.clock.advance(1.0)
    assert engine.scheduler.pending_checks == CHECKS
    assert len(engine.scheduler._batches) == 1
    return execution_id


def batch_tasks() -> list[asyncio.Task]:
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "CheckScheduler._ask"
    ]


async def exchange(reader, writer, method: str, target: str) -> tuple[int, bytes]:
    writer.write(f"{method} {target} HTTP/1.1\r\nHost: engine\r\nContent-Length: 0\r\n\r\n".encode())
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return status, await reader.readexactly(length)


def listing(engine: Engine) -> list[tuple]:
    return [
        (execution_id, execution.status, execution.current_state, len(execution.visits), execution.paused)
        for execution_id, execution in engine.executions.items()
    ]


def test_hostile_lifecycle_requests_are_answered_below_500():
    loop = asyncio.new_event_loop()
    engine = Engine(clock=VirtualClock())
    engine.register_provider("ok", StaticProvider({"q": 1.0}))
    engine.register_provider("hung", HungProvider())
    server = EngineApiServer(engine)

    async def setup():
        ended = engine.enact(one_phase("ended", "ok", interval=1.0))
        await engine.clock.advance(1.0)
        assert (await engine.wait(ended)).status is ExecutionStatus.COMPLETED
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port, limit=1 << 20)
        return ended, await park_live(engine), reader, writer

    ended, live, reader, writer = loop.run_until_complete(setup())
    ids = {"live": live}

    def send(method: str, target: str) -> tuple[int, bytes]:
        return loop.run_until_complete(
            asyncio.wait_for(exchange(reader, writer, method, target), DEADLINE)
        )

    @settings(max_examples=400, deadline=None)
    @given(request=lifecycle)
    @example_each(FIXED)
    def hostile(request):
        method, target = request
        target = (
            target.replace(LIVE_RAW, ids["live"])
            .replace(LIVE, quote(ids["live"], safe=""))
            .replace(ENDED, quote(ended, safe=""))
        )
        before = listing(engine), engine.scheduler.pending_checks
        status, body = send(method, target)
        assert status < 500, (method, target[:200], body[:200])
        status_after, _ = send("GET", "/healthz")
        assert status_after == 200
        if 400 <= status < 500:
            assert (listing(engine), engine.scheduler.pending_checks) == before
        if method == "DELETE" and status == 200:
            assert engine.scheduler.pending_checks == 0
            assert not engine.scheduler._batches and not loop.run_until_complete(
                _tasks_settled()
            )
            ids["live"] = loop.run_until_complete(park_live(engine))
        elif engine.execution(ids["live"]).paused and status == 200:
            send("POST", f"/api/executions/{quote(ids['live'], safe='')}/resume")

    async def _tasks_settled():
        await asyncio.sleep(0)
        return batch_tasks()

    try:
        hostile()
    finally:
        writer.close()
        loop.run_until_complete(server.stop())
        loop.run_until_complete(engine.shutdown())
        loop.close()


def test_pause_holds_a_parked_execution_before_its_next_phase():
    """Pausing an execution whose checks are a live group lets the phase
    finish and holds the execution before it enters the next state."""

    async def run():
        engine = Engine(clock=VirtualClock())
        engine.register_provider("ok", StaticProvider({"q": 1.0}))
        execution_id = engine.enact(one_phase("paused", "ok", interval=2.0))
        await engine.clock.advance(1.0)
        assert engine.scheduler.pending_checks == CHECKS
        engine.pause(execution_id)
        await engine.clock.advance(2.0)
        execution = engine.execution(execution_id)
        assert execution.status is ExecutionStatus.PAUSED
        assert [visit.state for visit in execution.visits] == ["probe"]
        assert engine.scheduler.pending_checks == 0
        engine.resume(execution_id)
        report = await engine.wait(execution_id)
        assert report.path == ["probe", "done"]
        await engine.shutdown()

    asyncio.run(run())
