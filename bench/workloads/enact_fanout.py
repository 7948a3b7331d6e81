"""enact_fanout: eight identical strategies enacted at once, always due.

Figures 8 and 10 at the knee: check timers of 0.5 ms are shorter than one
evaluation wave, so the scheduler is always due and enactment delay *is*
wave compute.  One enactment round is 8 strategies x 2 phases x 24 checks
x 5 ticks on a fresh ``Engine``; a window is two rounds (one alone is only
~0.14 s).  An op is one ``CHECK_EXECUTED`` event and its latency is the gap
since the check's previous execution (the first: since ``STATE_ENTERED``)
minus the timer interval.  The checks are six query shapes with common
subexpressions, identical across strategies, so provider single-flight,
the server's response memo and the plan DAG all hit (high sharing).
"""

from __future__ import annotations

import time

from repro.core import (
    BasicCheck,
    Engine,
    EventKind,
    ExecutionStatus,
    MetricCondition,
    OutputMapping,
    StrategyBuilder,
    Timer,
)
from repro.core.routing import canary_split, single_version
from repro.httpcore import HttpClient, HttpServer, Request, Response
from repro.metrics import HealthProvider, HttpPrometheusProvider, MetricsServer
from repro.proxy import BifrostProxy, HttpProxyController

from .. import runqueue
from ..stats import fingerprint
from .base import Outcome, Workload
from .fixtures import StepClock, metrics_counters

STRATEGIES = 8
ROUNDS_PER_WINDOW = 2
TICKS = 5
INTERVAL = 0.0005
VERSIONS = ("stable", "canary", "dark")
INSTANCES = 4
HEALTH_CHECKS = 6
BUCKETS = ("0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "+Inf")
PRELOAD_ROUNDS = 60
PHASES = ("canary", "half")
PATH = ["canary", "half", "done"]
#: (name suffix, query template, validator): six shapes, sharing the two
#: sum(rate(...)) subtrees between four of them.
_ERRORS = 'sum(rate(shop_errors_total{{version="{v}"}}[30s]))'
_REQUESTS = 'sum(rate(shop_requests_total{{version="{v}"}}[30s]))'
SHAPES = (
    ("error-ratio", f"{_ERRORS} / {_REQUESTS}", "<0.05"),
    ("throughput", _REQUESTS, ">0"),
    ("error-rate", _ERRORS, "<50"),
    ("latency-p95", 'histogram_quantile(0.95, shop_latency_seconds_bucket{{version="{v}"}})', "<5"),
    ("saturation", 'avg(shop_inflight{{version="{v}"}})', "<1000"),
    ("error-percent", f"{_ERRORS} / {_REQUESTS} * 100", "<5"),
)


class ShopStub(HttpServer):
    """The service behind the proxy: answers availability probes."""

    def __init__(self) -> None:
        super().__init__(name="shop-stub")
        self.router.get("/healthz")(self._health)

    async def _health(self, request: Request) -> Response:
        return Response(body=b'{"status":"up"}')


class EnactFanout(Workload):
    name = "enact_fanout"
    connections = 0  # no client loop: the engine drives

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("series")
        #: (name, labels, per-round increment) of every scraped series.
        self.series: list[tuple[str, dict[str, str], int]] = []
        for version in VERSIONS:
            for instance in range(INSTANCES):
                labels = {"version": version, "instance": f"i{instance}"}
                self.series.append(("shop_requests_total", labels, rng.randrange(80, 120)))
                self.series.append(("shop_errors_total", labels, rng.randrange(1, 3)))
                self.series.append(("shop_inflight", labels, rng.randrange(1, 40)))
            cumulative = 0
            for bound in BUCKETS:
                cumulative += rng.randrange(1, 9)
                self.series.append(
                    ("shop_latency_seconds_bucket", {"version": version, "le": bound}, cumulative)
                )
        self.round = 0

    def fingerprint(self) -> str:
        return fingerprint(
            {"series": [list(entry) for entry in self.series], "shapes": SHAPES}
        )

    # -- fixture -----------------------------------------------------------

    def _scrape(self) -> None:
        """One scrape round lands: a second passes, the generation bumps."""
        at = self.start + self.round
        self.clock.t = at
        self.metrics.store.record_batch(
            [
                (name, float(step * self.round if name != "shop_inflight" else step), at, labels)
                for name, labels, step in self.series
            ]
        )
        self.round += 1

    def _strategy(self, index: int):
        builder = StrategyBuilder(f"rollout-{index}")
        builder.service(
            "shop", {"stable": self.stub.address, "canary": self.stub.address}
        )
        routes = {
            "canary": canary_split("stable", "canary", 10.0),
            "half": canary_split("stable", "canary", 50.0),
        }
        for phase, follower in zip(PHASES, PATH[1:]):
            state = builder.state(phase).route("shop", routes[phase])
            for probe in range(HEALTH_CHECKS):
                state.check(self._check(
                    f"{phase}-available-{probe}",
                    MetricCondition.simple(self.stub.address, ">0.5", provider="health"),
                ))
            for suffix, template, validator in SHAPES:
                for version in VERSIONS:
                    state.check(self._check(
                        f"{phase}-{suffix}-{version}",
                        MetricCondition.simple(template.format(v=version), validator),
                    ))
            checks = HEALTH_CHECKS + len(SHAPES) * len(VERSIONS)
            state.transitions([checks - 0.5], ["abort", follower])
        builder.state("done").route("shop", single_version("canary")).final()
        builder.state("abort").route("shop", single_version("stable")).final(rollback=True)
        return builder.build()

    @staticmethod
    def _check(name: str, condition: MetricCondition) -> BasicCheck:
        return BasicCheck(
            name=name,
            condition=condition,
            timer=Timer(INTERVAL, TICKS),
            output=OutputMapping.boolean(float(TICKS)),
        )

    async def setup(self) -> None:
        self.clock = StepClock()
        self.start = self.clock.t
        self.metrics = MetricsServer(clock=self.clock, retention=3600.0)
        await self.metrics.start(scrape=False)
        self.round = 0
        for _ in range(PRELOAD_ROUNDS):
            self._scrape()
        self.stub = ShopStub()
        await self.stub.start()
        self.proxy = BifrostProxy("shop", self.stub.address)
        await self.proxy.start()
        self.client = HttpClient(timeout=10.0)
        self.controller = HttpProxyController({"shop": self.proxy.address}, client=self.client)
        self.prometheus = HttpPrometheusProvider(
            f"http://{self.metrics.address}", client=self.client
        )
        self.health = HealthProvider(client=self.client)
        self.strategies = [self._strategy(index) for index in range(STRATEGIES)]
        self.checks_per_round = STRATEGIES * len(PHASES) * (
            HEALTH_CHECKS + len(SHAPES) * len(VERSIONS)
        ) * TICKS
        self.scheduler_waves = 0
        self.enactments = 0
        self.delay_sum_s = 0.0
        first = Outcome()
        await self._round(first)
        if first.failed or first.ops != self.checks_per_round:
            raise RuntimeError(f"first enactment failed: {first.errors}")

    async def teardown(self) -> None:
        await self.client.close()
        await self.proxy.stop()
        await self.stub.stop()
        await self.metrics.stop()

    def servers(self) -> dict[str, list]:
        return {
            "metrics.server": [self.metrics],
            "proxy.handler": [self.proxy],
            "upstream.handler": [self.stub],
        }

    def counters(self) -> dict[str, float]:
        return {
            **metrics_counters(self.metrics),
            "provider_coalesced": self.prometheus.coalesced,
            "tick_waves": self.scheduler_waves,
            "enactments": self.enactments,
            "enact_delay_sum_s": self.delay_sum_s,
        }

    def gauges(self) -> dict[str, float]:
        return {"store_series": len(self.metrics.store)}

    # -- windows -----------------------------------------------------------

    def prepare(self, index: int) -> None:
        self._scrape()

    async def run(self, plan: None) -> Outcome:
        outcome = Outcome()
        for _ in range(ROUNDS_PER_WINDOW):
            await self._round(outcome)
        return outcome

    async def _round(self, outcome: Outcome) -> None:
        """Enact the eight strategies on a fresh engine, to completion."""
        engine = Engine(controller=self.controller)
        engine.register_provider("prometheus", self.prometheus)
        engine.register_provider("health", self.health)
        previous: dict[tuple, float] = {}
        executed: dict[tuple, int] = {}
        latencies: list[float] = []
        queued = runqueue.delay_s()
        started = time.perf_counter()

        def observe(event) -> None:
            if event.kind is EventKind.CHECK_EXECUTED:
                data = event.data
                key = (event.strategy, data["state"], data["check"])
                outcome.ops += 1
                executed[key] = executed.get(key, 0) + 1
                before = previous.get(key)
                if before is None:
                    before = previous[(event.strategy, data["state"])]
                previous[key] = event.at
                if data["result"] == 1:
                    latencies.append(event.at - before)
                else:
                    outcome.fail(f"{key}: check failed")
            elif event.kind is EventKind.STATE_ENTERED:
                previous[(event.strategy, event.data["state"])] = event.at

        engine.bus.subscribe(observe)
        for strategy in self.strategies:
            engine.enact(strategy)
        reports = await engine.wait_all()
        # The gaps are on the engine's clock and each spans several time
        # slices, so a core taken from the process stretches them all alike:
        # scale them by the share of the round the process had one.
        wall = time.perf_counter() - started
        with_core = (wall - (runqueue.delay_s() - queued)) / wall
        outcome.latencies_s.extend(gap * with_core - INTERVAL for gap in latencies)
        self.scheduler_waves += engine.scheduler.tick_waves
        # Oracle: every execution walked the expected path, every check
        # ran its exact tick count.
        for report, strategy in zip(reports, self.strategies):
            self.enactments += 1
            self.delay_sum_s += report.delay(strategy)
            if report.status is not ExecutionStatus.COMPLETED or report.path != PATH:
                outcome.fail(f"{report.execution_id}: {report.status.value} via {report.path}")
        wrong = [key for key, count in executed.items() if count != TICKS]
        expected_keys = self.checks_per_round // TICKS
        if wrong or len(executed) != expected_keys:
            outcome.fail(
                f"tick counts: {len(executed)} checks ran (expected {expected_keys}), "
                f"{len(wrong)} with the wrong number of ticks"
            )
