"""Shared scheduler vs per-task runner: observational equivalence.

The engine runs every check through one :class:`CheckScheduler` heap.
The oracle here is the simplest enactment there is: one asyncio task per
check, sleeping its interval and folding each evaluation through
:class:`CheckProgress`.  These properties generate random check
populations — mixed basic/exception checks, random intervals and
repetition counts, random pass/fail/no-data value sequences, and random
``onProviderError`` policies — and run the same population through both
under a :class:`VirtualClock`.  Execution timestamps, observer streams,
aggregation, and trigger instants must be identical.
"""

import asyncio
import random

from hypothesis import given, settings, strategies as st, target

from repro.clock import VirtualClock
from repro.core import (
    CheckProgress,
    CheckResult,
    CheckScheduler,
    Comparison,
    ExceptionCheck,
    ExceptionTriggered,
    MetricCondition,
    MetricQuery,
    ProviderErrorPolicy,
    Timer,
    simple_basic_check,
)
from repro.metrics import MetricsProvider, ProviderError, StaticProvider

# Value sequences: 1.0 passes "<5", 99.0 fails it, None is "no data".
tick_values = st.lists(
    st.sampled_from([1.0, 99.0, None]), min_size=1, max_size=6
)

policies = st.one_of(
    st.just(ProviderErrorPolicy(mode="trigger")),
    st.just(ProviderErrorPolicy(mode="hold")),
    st.builds(
        ProviderErrorPolicy,
        mode=st.just("tolerate"),
        tolerance=st.integers(min_value=1, max_value=3),
    ),
)

check_specs = st.lists(
    st.tuples(
        st.booleans(),  # exception check?
        st.sampled_from([1.0, 2.0, 3.0, 5.0]),  # interval
        st.integers(min_value=1, max_value=6),  # repetitions
        tick_values,
        policies,
    ),
    min_size=1,
    max_size=5,
)


async def run_per_task(check, providers, clock, observer):
    """The oracle: one dedicated timer loop for *check*."""
    progress = CheckProgress(check)
    for _ in range(check.timer.repetitions):
        await clock.sleep(check.timer.interval)
        evaluation = await check.condition.evaluate_detailed(providers)
        at = clock.now()
        outcome = progress.apply(evaluation, at)
        if outcome.execution is not None:
            observed = observer(check, outcome.execution)
            if asyncio.iscoroutine(observed):
                await observed
        if outcome.triggered:
            raise ExceptionTriggered(check, at)
    return progress.result()


def build_checks(specs):
    """One check per spec, each reading its own provider key so the two
    runs consume identical value sequences regardless of interleaving."""
    checks, data = [], {}
    for index, (exceptional, interval, repetitions, values, policy) in enumerate(specs):
        query = f"q{index}"
        data[query] = list(values)
        if exceptional:
            checks.append(
                ExceptionCheck(
                    name=f"check{index}",
                    condition=MetricCondition.simple(query, "<5", provider="static"),
                    timer=Timer(interval, repetitions),
                    fallback_state="rollback",
                    on_provider_error=policy,
                )
            )
        else:
            checks.append(
                simple_basic_check(
                    f"check{index}", query, "<5", interval, repetitions,
                    threshold=1, provider="static",
                )
            )
    return checks, data


def normalize(outcome):
    if isinstance(outcome, ExceptionTriggered):
        return ("triggered", outcome.check.name, outcome.at)
    assert isinstance(outcome, CheckResult)
    return (
        "completed",
        outcome.aggregated,
        outcome.mapped,
        [(e.at, e.result) for e in outcome.executions],
    )


def observer_into(stream):
    def observer(check, execution):
        stream.setdefault(check.name, []).append((execution.at, execution.result))
    return observer


async def run_per_task_population(checks, data, horizon):
    clock = VirtualClock()
    providers = {"static": StaticProvider(dict(data))}
    observed: dict[str, list] = {}
    tasks = [
        asyncio.ensure_future(
            run_per_task(check, providers, clock, observer_into(observed))
        )
        for check in checks
    ]
    await asyncio.sleep(0)
    await clock.advance(horizon)
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    return [normalize(outcome) for outcome in outcomes], observed


async def run_scheduled_population(checks, data, horizon):
    clock = VirtualClock()
    providers = {"static": StaticProvider(dict(data))}
    observed: dict[str, list] = {}
    scheduler = CheckScheduler(clock)
    try:
        futures = [
            scheduler.schedule(check, providers, observer=observer_into(observed))
            for check in checks
        ]
        await asyncio.sleep(0)
        await clock.advance(horizon)
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
    finally:
        await scheduler.close()
    return [normalize(outcome) for outcome in outcomes], observed


@settings(max_examples=60, deadline=None)
@given(check_specs)
def test_scheduler_equivalent_to_per_task_runner(specs):
    checks, data = build_checks(specs)
    horizon = max(check.timer.duration for check in checks) + 1.0

    async def scenario():
        per_task = await run_per_task_population(checks, data, horizon)
        scheduled = await run_scheduled_population(checks, data, horizon)
        assert scheduled == per_task

    asyncio.run(scenario())


@settings(max_examples=30, deadline=None)
@given(check_specs)
def test_scheduler_single_check_matches_runner_run(specs):
    """A scheduler holding one check ≡ the oracle running that check."""
    checks, data = build_checks(specs[:1])
    horizon = checks[0].timer.duration + 1.0

    async def scenario():
        per_task = await run_per_task_population(checks, data, horizon)
        assert await run_scheduled_population(checks, data, horizon) == per_task

    asyncio.run(scenario())


# -- populations whose checks share queries ---------------------------------
#
# The scheduler fetches each (provider, query) once while it is in flight
# and hands the answer to every check that asked meanwhile; the per-task
# reference asks once per check.  The two can only be compared over a
# provider whose answer is a pure function of (query, clock.now()) — which
# is also the semantic claim: checks deciding on the same tick decide on
# the same evidence.  Here every tick lands on a whole second and the slow
# question takes exactly one, and an answer lands before a dispatch due at
# the same instant, so no question is in flight when a later wave asks it.
# The population after this one lets waves overlap.

POOL = ("q0", "q1", "q2")


class PureProvider(StaticProvider):
    """Answer, failure and latency are functions of (seed, query, now) only."""

    def __init__(self, seed, clock):
        super().__init__({})
        self.seed = seed
        self.clock = clock

    async def query(self, query):
        self.query_log.append(query)
        now = self.clock.now()
        draw = random.Random(f"{self.seed}:{query}:{now}").randrange(8)
        if query == "q2":
            await self.clock.sleep(1.0)  # a slow question beside instant ones
        if draw == 0:
            raise ProviderError(f"{query} unavailable at {now}")
        if draw == 1:
            raise ConnectionError(f"{query} reset at {now}")
        return {2: None, 3: 99.0}.get(draw, 1.0)


shared_specs = st.lists(
    st.tuples(
        st.sampled_from(["basic", "exception", "comparison"]),
        st.sampled_from([1.0, 2.0, 3.0]),  # interval
        st.integers(min_value=1, max_value=5),  # repetitions
        st.sampled_from(POOL),
        st.sampled_from(POOL),  # right-hand side of a comparison
        policies,
    ),
    min_size=2,
    max_size=8,
)


def build_shared_checks(specs):
    checks = []
    for index, (kind, interval, repetitions, query, other, policy) in enumerate(specs):
        name = f"check{index}"
        if kind == "exception":
            checks.append(
                ExceptionCheck(
                    name=name,
                    condition=MetricCondition.simple(query, "<5", provider="static"),
                    timer=Timer(interval, repetitions),
                    fallback_state="rollback",
                    on_provider_error=policy,
                )
            )
            continue
        check = simple_basic_check(
            name, query, "<5", interval, repetitions, threshold=1, provider="static"
        )
        if kind == "comparison":
            check.condition = MetricCondition(
                queries=(
                    MetricQuery("left", query, "static"),
                    MetricQuery("right", other, "static"),
                ),
                comparison=Comparison("left", "<=", "right"),
            )
        checks.append(check)
    return checks


@settings(max_examples=60, deadline=None)
@given(shared_specs, st.integers(min_value=0, max_value=2**16))
def test_wave_equivalent_to_per_task_runner_when_checks_share_queries(specs, seed):
    checks = build_shared_checks(specs)
    # Every tick may also wait for the slow question.
    horizon = max(
        (check.timer.interval + 1.0) * check.timer.repetitions for check in checks
    ) + 1.0

    async def population(schedule_all):
        clock = VirtualClock()
        provider = PureProvider(seed, clock)
        observed: dict[str, list] = {}
        scheduler = CheckScheduler(clock)
        try:
            waiters = schedule_all(
                scheduler, {"static": provider}, clock, observer_into(observed)
            )
            await asyncio.sleep(0)
            await clock.advance(horizon)
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
        finally:
            await scheduler.close()
        return [normalize(outcome) for outcome in outcomes], observed, provider

    def per_task(scheduler, providers, clock, observer):
        return [
            asyncio.ensure_future(run_per_task(check, providers, clock, observer))
            for check in checks
        ]

    def wave(scheduler, providers, clock, observer):
        return [
            scheduler.schedule(check, providers, observer=observer) for check in checks
        ]

    async def scenario():
        *reference, asked_each = await population(per_task)
        *scheduled, asked_once = await population(wave)
        assert scheduled == reference
        # Never more provider calls than the reference, and the same questions.
        assert len(asked_once.query_log) <= len(asked_each.query_log)
        assert set(asked_once.query_log) == set(asked_each.query_log)

    asyncio.run(scenario())


# -- populations whose waves overlap ------------------------------------------
#
# Each call takes a seeded, non-integer latency, so ticks drift off the
# whole seconds and a check can come due while its question is still in
# flight from an earlier wave; it then joins that fetch.  The per-task
# reference gets the same sharing from a plain single-flight in front of
# the provider: a call made while the same question is in flight shares
# that call's answer.  Answers depend on the start time of the call that
# produced them, so a check that asked afresh instead of joining would
# (almost always) see different evidence.


class StartTimeProvider(MetricsProvider):
    """Answer, failure and latency are functions of (seed, query, start time).

    ``most_in_flight`` is the largest number of calls of one question that
    were ever out at once.
    """

    def __init__(self, seed, clock):
        self.seed = seed
        self.clock = clock
        self.calls = 0
        self.in_flight: dict[str, int] = {}
        self.most_in_flight = 0

    async def query(self, query):
        self.calls += 1
        start = self.clock.now()
        draw = random.Random(f"{self.seed}:{query}:{start}")
        self.in_flight[query] = self.in_flight.get(query, 0) + 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight[query])
        try:
            await self.clock.sleep(draw.uniform(0.05, 2.5))
        finally:
            self.in_flight[query] -= 1
        outcome = draw.randrange(8)
        if outcome == 0:
            raise ProviderError(f"{query} unavailable at {start}")
        if outcome == 1:
            raise ConnectionError(f"{query} reset at {start}")
        return {2: None, 3: 99.0}.get(outcome, 1.0)


class ReferenceSingleFlight(MetricsProvider):
    """The oracle's sharing: a call of a question in flight awaits that call.

    A call leaves the table the moment its answer arrives, so nothing is
    reused once answered.  ``joins`` counts calls that joined one started
    at an earlier time (another wave, in scheduler terms).
    """

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.joins = 0
        self._in_flight: dict[str, tuple[float, asyncio.Future]] = {}

    async def query(self, query):
        if query in self._in_flight:
            started, call = self._in_flight[query]
            self.joins += started != self.clock.now()
        else:
            call = asyncio.ensure_future(self._lead(query))
            self._in_flight[query] = (self.clock.now(), call)
        return await asyncio.shield(call)

    async def _lead(self, query):
        try:
            return await self.inner.query(query)
        finally:
            del self._in_flight[query]


async def overlapping_populations(specs, seed):
    """Run *specs* through the reference and through the scheduler; returns
    both outcomes, both providers and the reference's cross-wave joins."""
    checks = build_shared_checks(specs)
    horizon = max(
        (check.timer.interval + 2.5) * check.timer.repetitions for check in checks
    ) + 1.0

    async def population(schedule_all, share):
        clock = VirtualClock()
        provider = StartTimeProvider(seed, clock)
        shared = share(provider, clock)
        observed: dict[str, list] = {}
        scheduler = CheckScheduler(clock)
        try:
            waiters = schedule_all(
                scheduler, {"static": shared}, clock, observer_into(observed)
            )
            await asyncio.sleep(0)
            await clock.advance(horizon)
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
        finally:
            await scheduler.close()
        return [normalize(outcome) for outcome in outcomes], observed, provider, shared

    def per_task(scheduler, providers, clock, observer):
        return [
            asyncio.ensure_future(run_per_task(check, providers, clock, observer))
            for check in checks
        ]

    def wave(scheduler, providers, clock, observer):
        return [
            scheduler.schedule(check, providers, observer=observer) for check in checks
        ]

    *reference, asked_by_reference, single_flight = await population(
        per_task, ReferenceSingleFlight
    )
    *scheduled, asked_by_scheduler, _ = await population(
        wave, lambda provider, clock: provider
    )
    return reference, scheduled, asked_by_reference, asked_by_scheduler, single_flight.joins


@settings(max_examples=60, deadline=None)
@given(shared_specs, st.integers(min_value=0, max_value=2**16))
def test_check_joining_an_in_flight_fetch_equivalent_to_single_flight_reference(
    specs, seed
):
    async def scenario():
        reference, scheduled, by_reference, by_scheduler, joins = (
            await overlapping_populations(specs, seed)
        )
        assert scheduled == reference
        assert by_scheduler.calls <= by_reference.calls
        assert by_scheduler.most_in_flight <= 1
        target(float(joins), label="cross-wave joins")

    asyncio.run(scenario())


def test_overlapping_population_joins_fetches_from_earlier_waves():
    """A fixed draw in which checks do join fetches from earlier waves."""
    specs = [
        ("basic", 1.0, 5, "q0", "q0", ProviderErrorPolicy(mode="hold")),
        ("comparison", 2.0, 4, "q0", "q1", ProviderErrorPolicy(mode="hold")),
        ("exception", 3.0, 3, "q1", "q1", ProviderErrorPolicy(mode="hold")),
    ]

    async def scenario():
        reference, scheduled, by_reference, by_scheduler, joins = (
            await overlapping_populations(specs, 7)
        )
        assert joins > 0
        assert scheduled == reference
        assert by_scheduler.calls == by_reference.calls
        assert by_scheduler.most_in_flight == 1

    asyncio.run(scenario())
