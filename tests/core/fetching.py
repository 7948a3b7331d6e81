"""Fetch a condition's queries one provider call each, then decide.

The product never fetches per condition: the check scheduler asks each
question in flight once and hands the answers to
``MetricCondition.evaluate_detailed``.  This is the plain reference the
one-task-per-check oracle and the check unit tests evaluate through: the
queries are fetched concurrently, so a condition costs roughly its
slowest query rather than the sum of all latencies, and a failure
becomes "no data" under the product's own rule, ``answer_of``.
"""

import asyncio

from repro.core.checks import Answer, ConditionEvaluation, MetricCondition, answer_of
from repro.metrics import MetricsProvider


async def fetch_answer(provider: MetricsProvider, query: str) -> Answer:
    """Ask *provider* one question; its failure becomes "no data"."""
    try:
        value = await provider.query(query)
    except Exception as exc:
        value = exc
    return answer_of(query, value)


async def evaluate(
    condition: MetricCondition, providers: dict[str, MetricsProvider]
) -> ConditionEvaluation:
    """One execution of *condition*, fetching its queries first."""
    asked = condition.questions(providers)
    if len(asked) == 1:
        answers = [await fetch_answer(*asked[0])]
    else:
        answers = await asyncio.gather(
            *(fetch_answer(provider, query) for provider, query in asked)
        )
    return condition.evaluate_detailed(providers, answers)
