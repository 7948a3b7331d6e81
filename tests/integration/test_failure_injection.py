"""Failure injection: the middleware under broken dependencies.

Live testing exists to contain failures; the middleware itself must
behave sanely when its own dependencies break: unreachable metrics
providers, dying proxies, crashing upstreams mid-flight.

The second half of this module drives the check's provider-error
policy end-to-end with the deterministic fault toolkit
(:mod:`repro.resilience.faults`) under a virtual clock: a flaky provider
is tolerated, a dead one trips the guard and rolls the strategy back,
and a crashing controller still leaves every touched service on its safe
routing.
"""

import asyncio
import time

from repro.clock import VirtualClock
from repro.core import (
    Engine,
    EventKind,
    ExceptionCheck,
    ExecutionStatus,
    MetricCondition,
    ProviderErrorPolicy,
    RecordingController,
    StrategyBuilder,
    Timer,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.httpcore import HttpClient, HttpServer, Response
from repro.metrics import HttpPrometheusProvider, MetricsServer, StaticProvider
from repro.proxy import BifrostProxy, HttpProxyController, LocalProxyController
from repro.resilience import FaultSchedule, FaultyController, FaultyProvider


def canary_strategy(
    endpoints, interval=0.1, repetitions=3, query="up_metric", validator=">0"
):
    builder = StrategyBuilder("failure-test")
    builder.service("svc", endpoints)
    builder.state("canary").route("svc", canary_split("stable", "canary", 10.0)).check(
        simple_basic_check(
            "health", query, validator, interval, repetitions, provider="prometheus"
        )
    ).transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(
        rollback=True
    )
    return builder.build()


async def test_unreachable_metrics_provider_causes_rollback_not_crash():
    """Checks against a dead Prometheus fail; the strategy rolls back."""
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    controller = LocalProxyController({"svc": proxy})
    engine = Engine(controller=controller)
    engine.register_provider(
        "prometheus", HttpPrometheusProvider("http://127.0.0.1:1")
    )
    strategy = canary_strategy({"stable": "h:1", "canary": "h:2"})
    execution_id = engine.enact(strategy)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.path == ["canary", "rollback"]
    await engine.shutdown()


async def test_a_metrics_answer_that_is_not_a_number_rolls_back_not_fails():
    """A 200 carrying ``"value": "abc"`` is no data, like an unreachable
    Prometheus: the check fails and the strategy takes its transition."""
    metrics = HttpServer(name="metrics")

    async def not_a_number(request):
        return Response.from_json({"status": "success", "data": {"value": "abc"}})

    metrics.router.set_fallback(not_a_number)
    await metrics.start()
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    engine = Engine(controller=LocalProxyController({"svc": proxy}))
    engine.register_provider(
        "prometheus", HttpPrometheusProvider(f"http://{metrics.address}")
    )
    execution_id = engine.enact(canary_strategy({"stable": "h:1", "canary": "h:2"}))
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.path == ["canary", "rollback"]
    await engine.shutdown()
    await metrics.stop()


async def test_a_canary_without_traffic_does_not_pass_a_success_ratio():
    """0/0 is NaN, not +Inf: a success ratio over no requests is no
    evidence, so the check fails and the strategy rolls back."""
    metrics = MetricsServer()
    await metrics.start(scrape=False)
    now = metrics.clock.now()
    for age in (20.0, 10.0, 0.0):  # flat counters: no request at all
        metrics.store.record("ok_total", 5.0, now - age)
        metrics.store.record("all_total", 5.0, now - age)
    engine = Engine(controller=RecordingController())
    engine.register_provider(
        "prometheus", HttpPrometheusProvider(f"http://{metrics.address}")
    )
    strategy = canary_strategy(
        {"stable": "h:1", "canary": "h:2"},
        query="sum(rate(ok_total[30s])) / sum(rate(all_total[30s]))",
        validator=">0.99",
    )
    report = await engine.wait(engine.enact(strategy))
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.path == ["canary", "rollback"]
    await engine.shutdown()
    await metrics.stop()


async def test_metrics_server_dying_mid_strategy_rolls_back():
    metrics = MetricsServer()
    await metrics.start(scrape=False)
    metrics.store.record("up_metric", 1.0, metrics.clock.now())
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    controller = LocalProxyController({"svc": proxy})
    engine = Engine(controller=controller)
    engine.register_provider(
        "prometheus", HttpPrometheusProvider(f"http://{metrics.address}")
    )
    strategy = canary_strategy(
        {"stable": "h:1", "canary": "h:2"}, interval=0.15, repetitions=4
    )
    execution_id = engine.enact(strategy)
    await asyncio.sleep(0.2)  # first executions succeed
    await metrics.stop()  # Prometheus dies mid-phase
    report = await engine.wait(execution_id)
    # Remaining executions fail -> aggregated below threshold -> rollback.
    assert report.status is ExecutionStatus.ROLLED_BACK
    await engine.shutdown()


async def test_unreachable_proxy_fails_the_execution():
    """Routing cannot be applied: enactment fails loudly, not silently."""
    controller = HttpProxyController({"svc": "127.0.0.1:1"})
    engine = Engine(controller=controller)
    strategy = canary_strategy({"stable": "h:1", "canary": "h:2"})
    execution_id = engine.enact(strategy)
    report = await engine.wait(execution_id)
    assert report.status is ExecutionStatus.FAILED
    assert "unreachable" in report.error
    await engine.shutdown()
    await controller.close()


async def test_exception_check_fires_when_service_starts_erroring():
    """An exception check reacts to a mid-phase failure within one tick."""
    upstream_healthy = True
    metrics = MetricsServer()
    await metrics.start(scrape=False)

    async def feed_metrics():
        while True:
            metrics.store.record(
                "error_rate",
                0.0 if upstream_healthy else 100.0,
                metrics.clock.now(),
            )
            await asyncio.sleep(0.05)

    feeder = asyncio.ensure_future(feed_metrics())
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    controller = LocalProxyController({"svc": proxy})
    engine = Engine(controller=controller)
    engine.register_provider(
        "prometheus", HttpPrometheusProvider(f"http://{metrics.address}")
    )

    builder = StrategyBuilder("guarded")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 10.0)).check(
        ExceptionCheck(
            "guard",
            MetricCondition.simple("error_rate", "<50", provider="prometheus"),
            Timer(0.1, 50),  # nominal 5s phase
            fallback_state="rollback",
        )
    ).transitions([0], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(
        rollback=True
    )
    strategy = builder.build()

    execution_id = engine.enact(strategy)
    await asyncio.sleep(0.4)
    upstream_healthy = False  # the canary melts down mid-phase
    report = await engine.wait(execution_id)
    feeder.cancel()
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.visits[0].via_exception
    # Preempted: far sooner than the nominal 5 s phase.
    assert report.duration < 3.0
    await engine.shutdown()
    await metrics.stop()


async def test_proxy_serves_stable_while_upstream_canary_dies():
    """A dead canary instance yields 502s for its share, but the stable
    version keeps serving — the blast radius stays at the canary split."""
    stable = HttpServer()
    stable.router.set_fallback(lambda r: _ok("stable"))
    await stable.start()
    canary = HttpServer()
    canary.router.set_fallback(lambda r: _ok("canary"))
    await canary.start()
    proxy = BifrostProxy("svc", default_upstream=stable.address)
    await proxy.start()
    endpoints = {"stable": stable.address, "canary": canary.address}
    proxy.apply_config(canary_split("stable", "canary", 50.0), endpoints)
    await canary.stop()  # the canary dies

    async with HttpClient() as client:
        statuses = []
        for i in range(60):
            response = await client.get(
                f"http://{proxy.address}/x",
                headers={"Cookie": f"bifrost_client=user-{i}"},
            )
            statuses.append(response.status)
    assert 200 in statuses  # stable share unaffected
    assert 502 in statuses  # canary share fails visibly
    assert statuses.count(200) > 10
    await proxy.stop()
    await stable.stop()


async def _ok(tag):
    return Response.from_json({"version": tag})


# -- provider errors end-to-end (virtual clock, fault toolkit) ------------


def guarded_canary(policy=None, repetitions=5):
    """Canary guarded by an exception check; rollback is the safe harbor."""
    builder = StrategyBuilder("resilient-canary")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    check = ExceptionCheck(
        "guard",
        MetricCondition.simple("up_metric", ">0", provider="static"),
        Timer(1.0, repetitions),
        fallback_state="rollback",
        on_provider_error=policy or ProviderErrorPolicy(),
    )
    builder.state("canary").route(
        "svc", canary_split("stable", "canary", 10.0)
    ).check(check).transitions([0], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(
        rollback=True
    )
    return builder.build()


async def drive(engine, clock, execution_id, step=0.5, limit=400):
    task = asyncio.ensure_future(engine.wait(execution_id))
    for _ in range(limit):
        if task.done():
            break
        await clock.advance(step)
    assert task.done(), "execution did not finish while driving the clock"
    return task.result()


async def test_flaky_provider_canary_completes_under_retry():
    """1-of-3 queries failing is a flaky dependency, not a bad release:
    a guard that tolerates one unanswered tick rides through it."""
    started = time.monotonic()
    clock = VirtualClock()
    flaky = FaultyProvider(
        StaticProvider({"up_metric": 1.0}), FaultSchedule.every(3), clock
    )
    engine = Engine(controller=RecordingController(), clock=clock)
    engine.register_provider("static", flaky)
    strategy = guarded_canary(ProviderErrorPolicy(mode="tolerate", tolerance=1))
    execution_id = engine.enact(strategy)
    await asyncio.sleep(0)
    report = await drive(engine, clock, execution_id)
    assert report.status is ExecutionStatus.COMPLETED
    assert report.path == ["canary", "done"]
    # The flakiness was real ...
    assert flaky.injected
    # ... and the whole run cost virtually no wall time.
    assert time.monotonic() - started < 1.0


async def test_dead_provider_opens_breaker_and_rolls_back_to_safe_routing():
    """A permanently dead provider must end ROLLED_BACK with the touched
    service restored to stable — never FAILED.  The guard tolerates one
    unanswered tick and trips on the second."""
    started = time.monotonic()
    clock = VirtualClock()
    dead = FaultyProvider(
        StaticProvider({"up_metric": 1.0}), FaultSchedule.always(), clock
    )
    controller = RecordingController()
    engine = Engine(controller=controller, clock=clock)
    engine.register_provider("static", dead)
    strategy = guarded_canary(ProviderErrorPolicy(mode="tolerate", tolerance=1))
    execution_id = engine.enact(strategy)
    await asyncio.sleep(0)
    report = await drive(engine, clock, execution_id)
    assert report.status is ExecutionStatus.ROLLED_BACK
    assert report.path == ["canary", "rollback"]
    assert report.visits[0].via_exception
    assert dead.injected
    # The rollback state's routing drove the service back to stable.
    assert controller.latest_for("svc") == single_version("stable")
    assert time.monotonic() - started < 1.0


async def test_controller_death_mid_strategy_restores_safe_routing():
    """The proxy controller crashing mid-enactment must not strand the
    canary split: recovery drives the service to the rollback routing."""
    clock = VirtualClock()
    recording = RecordingController()
    # Apply 1 (canary split) works; apply 2 (the transition after the
    # check phase) crashes; the recovery apply works again.
    controller = FaultyController(recording, FaultSchedule.calls({2}), clock)
    engine = Engine(controller=controller, clock=clock)
    engine.register_provider("static", StaticProvider({"up_metric": 1.0}))
    execution_id = engine.enact(guarded_canary())
    await asyncio.sleep(0)
    report = await drive(engine, clock, execution_id)
    assert report.status is ExecutionStatus.FAILED
    assert recording.latest_for("svc") == single_version("stable")
    applied = engine.bus.of_kind(EventKind.SAFE_ROUTING_APPLIED)
    assert [event.data["service"] for event in applied] == ["svc"]
