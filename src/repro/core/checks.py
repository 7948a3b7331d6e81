"""Checks: timed evaluation of monitoring data.

A check c_i is the model's unit of data-driven decision making:

* a metric evaluating function f_ci : Ω_i → {0, 1},
* monitoring data Ω_i (provider queries),
* a timer τ controlling when and how often the function re-executes.

Basic checks ⟨f, Ω, τ, T, Out⟩ aggregate their execution results and map
the sum through an output mapping at the end of the state.  Exception
checks ⟨f, Ω, τ, s_j⟩ trigger an immediate transition to a fallback state
the moment a single execution fails (paper Figure 3: state changes possible
at t0..t3).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Awaitable, Callable, NamedTuple, Sequence

from ..metrics.provider import MetricsProvider, ProviderError
from .outcome import COMPARISONS, OutcomeError, OutputMapping, Validator

logger = logging.getLogger(__name__)


class CheckError(Exception):
    """A check definition is invalid."""


@dataclass(frozen=True)
class Timer:
    """τ — re-execution control: run every *interval* s, *repetitions* times."""

    interval: float
    repetitions: int

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise CheckError(f"timer interval must be positive, got {self.interval}")
        if self.repetitions < 1:
            raise CheckError(
                f"timer needs at least one repetition, got {self.repetitions}"
            )

    @property
    def duration(self) -> float:
        """Nominal wall time the timed executions span."""
        return self.interval * self.repetitions


@dataclass(frozen=True)
class MetricQuery:
    """One named retrieval from a metrics provider (DSL ``metric`` element)."""

    name: str  # alias usable by the condition, e.g. "search_error"
    query: str  # provider query, e.g. 'request_errors{instance="search:80"}'
    provider: str = "prometheus"


#: A custom predicate over the fetched values; None values mean "no data".
Predicate = Callable[[dict[str, float | None]], bool]

@dataclass(frozen=True)
class Comparison:
    """Cross-metric rule: compare two named metrics of the condition.

    The A/B-test pattern — "comparing the number of sold items on both
    variants" (paper section 2.3) — as declarative data, so the DSL can
    express it and the serializer can round-trip it.
    """

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise CheckError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {sorted(COMPARISONS)}"
            )

    def check(self, left: float | None, right: float | None) -> int:
        if left is None or right is None:
            return 0  # no data on either side: the comparison cannot pass
        return 1 if COMPARISONS[self.op](left, right) else 0

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


_TOLERATE = re.compile(r"^tolerate\((\d+)\)$")


@dataclass(frozen=True)
class ProviderErrorPolicy:
    """What an exception check does when its monitoring data is unavailable.

    A provider error is not evidence about the release — the canary may be
    perfectly healthy while Prometheus reboots.  The policy decides how an
    exception check treats such a tick:

    * ``trigger`` (default, the historical behavior) — unavailable data is
      treated as a failed execution and trips the fallback immediately;
      maximally conservative.
    * ``tolerate(n)`` — up to *n* consecutive data-unavailable executions
      are recorded as failures but do not trip the fallback; the (n+1)-th
      consecutive one does.  Any tick with data resets the run.
    * ``hold`` — a data-unavailable tick is not counted at all (neither
      success nor failure); the check simply has one observation fewer.
    """

    mode: str = "trigger"
    tolerance: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("trigger", "tolerate", "hold"):
            raise CheckError(
                f"unknown provider-error mode {self.mode!r}; "
                "expected trigger, tolerate, or hold"
            )
        if self.mode == "tolerate" and self.tolerance < 1:
            raise CheckError(
                f"tolerate needs a tolerance >= 1, got {self.tolerance}"
            )
        if self.mode != "tolerate" and self.tolerance != 0:
            raise CheckError(f"{self.mode!r} does not take a tolerance")

    @classmethod
    def parse(cls, text: str) -> "ProviderErrorPolicy":
        """Parse the DSL form: ``trigger``, ``hold``, or ``tolerate(n)``."""
        if text in ("trigger", "hold"):
            return cls(mode=text)
        match = _TOLERATE.match(text)
        if match is not None:
            return cls(mode="tolerate", tolerance=int(match.group(1)))
        raise CheckError(
            f"bad onProviderError value {text!r}; "
            "expected 'trigger', 'hold', or 'tolerate(<n>)'"
        )

    def __str__(self) -> str:
        if self.mode == "tolerate":
            return f"tolerate({self.tolerance})"
        return self.mode


#: What one provider call yielded: ``(value, None)``, or ``(None, error
#: text)`` when the provider could not answer.
Answer = tuple[float | None, str | None]


def answer_of(query: str, value: float | None | Exception) -> Answer:
    """The :data:`Answer` to *query* that a provider gave as *value*.

    Any provider exception — ``ProviderError`` or an unexpected one a
    backend leaks (``ConnectionError``, ``OSError``, ...) — downgrades the
    metric to "no data" rather than crashing the enactment; only
    ``CancelledError`` propagates, and it never arrives here.
    """
    if not isinstance(value, Exception):
        return value, None
    if isinstance(value, ProviderError):
        logger.warning("query %r failed: %s", query, value)
        return None, str(value)
    logger.error(
        "query %r raised unexpectedly; treating as no data", query, exc_info=value
    )
    return None, f"{type(value).__name__}: {value}"


class ConditionEvaluation(NamedTuple):
    """One execution of f_ci, with provenance.

    ``result`` is the 0/1 decision (no data can never pass).
    ``data_available`` records whether the metrics the decision rule
    consulted were actually present — the difference between "the check
    failed" and "we could not look".
    """

    result: int
    data_available: bool
    errors: tuple[str, ...] = ()


@dataclass
class MetricCondition:
    """f_ci — the queries Ω_i asks of providers, and the pass/fail rule.

    Exactly one decision rule applies to the fetched values:

    * a :class:`Validator` over one named metric (*subject*, defaulting to
      the only query),
    * a :class:`Comparison` between two named metrics, or
    * a custom *predicate* seeing all fetched values.

    Provider errors count as failed executions — a check must not pass
    while its monitoring data is unavailable.
    """

    queries: tuple[MetricQuery, ...]
    validator: Validator | None = None
    predicate: Predicate | None = None
    comparison: Comparison | None = None
    subject: str | None = None

    def __post_init__(self) -> None:
        if not self.queries:
            raise CheckError("a condition needs at least one metric query")
        names = [query.name for query in self.queries]
        if len(set(names)) != len(names):
            raise CheckError(f"duplicate metric names in condition: {names}")
        rules = [
            rule
            for rule in (self.validator, self.predicate, self.comparison)
            if rule is not None
        ]
        if len(rules) != 1:
            raise CheckError(
                "provide exactly one of validator, predicate, or comparison"
            )
        if self.validator is not None:
            subject = self.subject or self.queries[0].name
            if subject not in names:
                raise CheckError(
                    f"validator subject {subject!r} is not a query name: {names}"
                )
        if self.comparison is not None:
            for side in (self.comparison.left, self.comparison.right):
                if side not in names:
                    raise CheckError(
                        f"comparison side {side!r} is not a query name: {names}"
                    )

    @classmethod
    def simple(
        cls, query: str, validator: str, provider: str = "prometheus", name: str = "value"
    ) -> "MetricCondition":
        """The common single-metric case: one query plus ``"<5"``-style rule."""
        return cls(
            queries=(MetricQuery(name, query, provider),),
            validator=Validator.parse(validator),
        )

    def subscribe(self, providers: dict[str, MetricsProvider]) -> None:
        """Pre-register this condition's queries with plan-aware providers.

        Providers exposing a ``subscribe(query)`` hook (currently
        :class:`~repro.metrics.provider.LocalPrometheusProvider`) intern the
        query into their store's shared evaluation plan, so the check's
        first tick already shares subexpressions with every other
        subscribed check.  Providers without the hook are untouched; a missing
        provider is reported at evaluation time, not here.
        """
        for query in self.queries:
            provider = providers.get(query.provider)
            register = getattr(provider, "subscribe", None)
            if register is not None:
                register(query.query)

    def questions(
        self, providers: dict[str, MetricsProvider]
    ) -> list[tuple[MetricsProvider, str]]:
        """The ``(provider, query string)`` behind each query, in order."""
        asked = []
        for query in self.queries:
            provider = providers.get(query.provider)
            if provider is None:
                raise CheckError(
                    f"no provider named {query.provider!r} configured; "
                    f"known: {sorted(providers)}"
                )
            asked.append((provider, query.query))
        return asked

    def evaluate_detailed(
        self, providers: dict[str, MetricsProvider], answers: Sequence[Answer]
    ) -> ConditionEvaluation:
        """One execution of f_ci, distinguishing *failed* from *no data*.

        *answers* are this condition's fetched values, one :data:`Answer`
        per query in order (the scheduler fetches each distinct question
        in flight once and hands it to every asker).
        """
        if self.validator is not None and len(answers) == 1:
            # One query, so it is the subject: decide with no lookups.
            value, error = answers[0]
            return ConditionEvaluation(
                self.validator.check(value),
                value is not None,
                () if error is None else (f"{self.queries[0].name}: {error}",),
            )
        values: dict[str, float | None] = {}
        errors: list[str] = []
        for query, (value, error) in zip(self.queries, answers):
            values[query.name] = value
            if error is not None:
                errors.append(f"{query.name}: {error}")
        if self.validator is not None:
            subject = self.subject or self.queries[0].name
            return ConditionEvaluation(
                result=self.validator.check(values[subject]),
                data_available=values[subject] is not None,
                errors=tuple(errors),
            )
        if self.comparison is not None:
            left = values[self.comparison.left]
            right = values[self.comparison.right]
            return ConditionEvaluation(
                result=self.comparison.check(left, right),
                data_available=left is not None and right is not None,
                errors=tuple(errors),
            )
        assert self.predicate is not None
        available = all(value is not None for value in values.values())
        try:
            result = 1 if self.predicate(values) else 0
        except Exception:
            logger.exception("check predicate raised; counting as failure")
            result = 0
        return ConditionEvaluation(
            result=result, data_available=available, errors=tuple(errors)
        )


class Execution(NamedTuple):
    """One recorded execution of a check's function, for observability.

    ``due`` is the deadline the tick was armed for (``None`` when the
    caller did not say), so ``at - due`` is the tick's delay.
    """

    at: float
    result: int
    due: float | None = None


@dataclass
class BasicCheck:
    """⟨f_ci, Ω_i, τ, T_ci, Out_ci⟩ — evaluated at the end of the state."""

    name: str
    condition: MetricCondition
    timer: Timer
    output: OutputMapping


@dataclass
class ExceptionCheck:
    """⟨f_ci, Ω_i, τ, s_j⟩ — any failed execution jumps to *fallback_state*.

    ``on_provider_error`` governs executions whose monitoring data was
    unavailable (see :class:`ProviderErrorPolicy`); executions that *saw*
    data and failed always trigger.
    """

    name: str
    condition: MetricCondition
    timer: Timer
    fallback_state: str
    on_provider_error: ProviderErrorPolicy = field(
        default_factory=ProviderErrorPolicy
    )


Check = BasicCheck | ExceptionCheck


class ExceptionTriggered(Exception):
    """Raised inside a check task when an exception check fails."""

    def __init__(self, check: ExceptionCheck, at: float):
        super().__init__(f"exception check {check.name!r} triggered at t={at:.3f}")
        self.check = check
        self.at = at


@dataclass
class CheckResult:
    """Final result of one check's timed run within a state."""

    check: Check
    aggregated: int  # Σ of 0/1 execution results
    mapped: int  # Out_ci(e) for basic checks; aggregated for exception checks
    executions: list[Execution] = field(default_factory=list)


#: Observer invoked after every single execution (dashboard/event feed).
ExecutionObserver = Callable[[Check, Execution], Awaitable[None] | None]


class TickOutcome(NamedTuple):
    """What one timer tick did to a check's run.

    ``execution`` is ``None`` for held ticks (``onProviderError: hold``);
    ``triggered`` means the tick trips the exception-check fallback (after
    the observer has seen the recorded execution).
    """

    execution: Execution | None
    triggered: bool


class CheckProgress:
    """Mutable per-run state of one check's timed loop.

    The single source of truth for tick semantics — execution recording,
    0/1 aggregation, and the :class:`ProviderErrorPolicy` bookkeeping —
    folded by :class:`~repro.core.scheduler.CheckScheduler` once per tick.
    """

    def __init__(self, check: Check):
        self.check = check
        self.executions: list[Execution] = []
        self.total = 0
        self.consecutive_no_data = 0

    def apply(
        self, evaluation: ConditionEvaluation, at: float, due: float | None = None
    ) -> TickOutcome:
        """Fold one condition evaluation into the run; returns the tick's fate."""
        check = self.check
        if not evaluation.data_available and isinstance(check, ExceptionCheck):
            policy = check.on_provider_error
            if policy.mode == "hold":
                # The tick is not counted: no execution recorded, no
                # trigger — the check simply has one observation fewer.
                logger.warning(
                    "check %r held a tick (no data): %s",
                    check.name,
                    "; ".join(evaluation.errors),
                )
                return TickOutcome(execution=None, triggered=False)
            if policy.mode == "tolerate":
                self.consecutive_no_data += 1
                execution = Execution(at, 0, due)
                self.executions.append(execution)
                return TickOutcome(
                    execution=execution,
                    triggered=self.consecutive_no_data > policy.tolerance,
                )
            # "trigger": fall through — no data is a failed execution.
        else:
            self.consecutive_no_data = 0
        result = evaluation.result
        execution = Execution(at, result, due)
        self.executions.append(execution)
        self.total += result
        return TickOutcome(execution, result == 0 and isinstance(check, ExceptionCheck))

    def result(self) -> CheckResult:
        """The final :class:`CheckResult` once every repetition ran."""
        if isinstance(self.check, BasicCheck):
            mapped = self.check.output.map(self.total)
        else:
            # All n executions of an exception check succeeded: the
            # aggregated outcome equals n (paper section 3.2).
            mapped = self.total
        return CheckResult(
            self.check,
            aggregated=self.total,
            mapped=mapped,
            executions=self.executions,
        )


def simple_basic_check(
    name: str,
    query: str,
    validator: str,
    interval: float,
    repetitions: int,
    threshold: int | None = None,
    provider: str = "prometheus",
) -> BasicCheck:
    """Build a simplified-DSL basic check (paper section 4.2.2).

    Each DSL check has exactly one threshold; the aggregation maps to
    success (1) only when at least *threshold* executions pass.  The DSL
    default — ``threshold`` equal to ``intervalLimit`` — demands that every
    execution passes.
    """
    if threshold is None:
        threshold = repetitions
    if not 1 <= threshold <= repetitions:
        raise OutcomeError(
            f"threshold must be within [1, {repetitions}], got {threshold}"
        )
    return BasicCheck(
        name=name,
        condition=MetricCondition.simple(query, validator, provider),
        timer=Timer(interval, repetitions),
        output=OutputMapping.boolean(float(threshold)),
    )
