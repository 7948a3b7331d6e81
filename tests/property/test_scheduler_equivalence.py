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

from hypothesis import given, settings, strategies as st

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
from repro.metrics import ProviderError, StaticProvider

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
# The wave fetches each distinct (provider, query) once per dispatch and
# hands the answer to every check that asked; the per-task reference asks
# once per check.  The two can only be compared over a provider whose
# answer is a pure function of (query, clock.now()) — which is also the
# semantic claim: checks deciding on the same tick decide on the same
# evidence.

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
