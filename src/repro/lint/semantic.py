"""Semantic strategy analysis: the BF6xx rules.

Where BF1xx–BF5xx validate each field in isolation, these rules ask
whether a strategy can actually *do* what it declares (``docs/lint.md``
has the catalogue rows of BF601–BF605).

BF601/BF602 run the interval abstract domain (:mod:`repro.lint.domains`)
over each check's compiled query and compare the resulting bounds
against its validator.  BF603 is a bounded symbolic exploration of the
phase graph: paths from the start state are enumerated carrying a
per-service exposure vector (un-routed services keep their previous
exposure, exactly as the engine leaves proxy configs in place), and a
transition that raises some service's exposure by more than
``lint.options.maxExposureJump`` percentage points out of a *check-less*
phase is flagged.  BF605 encodes Basiri et al.'s falsifiability
requirement for game days: a hypothesis read through a provider that a
fault fails 100 % of the time is decided by the fault, not the system.

All five rules run on every lint model — documents get line-accurate
spans, in-memory strategies gate ``Engine.enact``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..core.automaton import State
from ..core.checks import Check, ExceptionCheck, MetricQuery
from ..metrics.query import QueryError, compile_query
from .diagnostics import Diagnostic, LintConfig, Severity, SourceSpan
from .domains import Interval, always_holds, interval_of, never_holds
from .model import LintModel
from .registry import rule

#: Bounded exploration: at most this many (state, exposure-vector) visits.
#: Exposure values come from a finite set of declared percentages, so real
#: strategies converge long before the cap; the cap keeps the rule total
#: on adversarial graphs.
MAX_EXPLORATION_STEPS = 4096


# -- BF601 / BF602: abstract interpretation of check conditions -------------


def _subject_position(check: Check) -> int:
    """Which query the check's validator applies to (the "subject"), as
    :class:`~repro.core.checks.MetricCondition` picks it: the one an
    explicit ``subject:`` names, else the first."""
    condition = check.condition
    if condition.subject is None:
        return 0
    names = [query.name for query in condition.queries]
    return names.index(condition.subject)


def _analyzable(check: Check) -> tuple[MetricQuery, Interval] | None:
    """``(query, interval)`` when the condition is provable.

    Only validator conditions over a compiling ``prometheus`` query are
    analyzable; compare/predicate conditions and foreign providers are
    skipped (their value ranges are unknown to the domain).
    """
    if check.condition.validator is None:
        return None
    query = check.condition.queries[_subject_position(check)]
    if query.provider != "prometheus":
        return None
    try:
        expression = compile_query(query.query)
    except QueryError:
        return None  # BF301 owns non-compiling queries
    return query, interval_of(expression)


def _check_span(
    model: LintModel, owner: str | None, index: int, check: Check
) -> SourceSpan | None:
    return (
        model.span("validator", owner, index)
        or model.span("query", owner, index, _subject_position(check))
        or model.span("check", owner, index)
    )


def _conditions(model: LintModel):
    """Every check with its context: phase checks first, then chaos
    steady-state hypotheses."""
    for name, state in model.states.items():
        if state.final:
            continue  # final-state checks never run; BF402 owns them
        for index, check in enumerate(state.checks):
            yield name, index, "check", check
    for index, check in enumerate(model.steady):
        yield None, index, "steady-state hypothesis", check


def analyze_conditions(model: LintModel) -> list[tuple]:
    """``(state, index, noun, check, query, interval)`` for every
    analyzable condition, in :func:`_conditions` order."""
    analyses = []
    for state, index, noun, check in _conditions(model):
        analyzed = _analyzable(check)
        if analyzed is not None:
            analyses.append((state, index, noun, check, *analyzed))
    return analyses


@rule(
    "BF601", "unsatisfiable-check", Severity.ERROR,
    "a check's validator can never hold for any value its query can produce",
    blocking=True,
)
def unsatisfiable_check(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for state, index, noun, check, query, interval in model.condition_analyses:
        validator = check.condition.validator
        if not never_holds(interval, validator.op, validator.bound):
            continue
        if noun == "steady-state hypothesis":
            consequence = "the hypothesis is violated unconditionally"
        elif isinstance(check, ExceptionCheck):
            consequence = "the guard trips on its first evaluation"
        else:
            consequence = "the check can never pass"
        yield unsatisfiable_check.rule.diagnostic(
            f"{noun} {check.name!r} is unsatisfiable: {query.query!r} is "
            f"provably within {interval}, so validator "
            f"'{validator}' can never hold — {consequence}",
            span=_check_span(model, state, index, check),
            state=state,
            fix="adjust the validator bound (or fix the query) so the "
            "condition is satisfiable",
        )


@rule(
    "BF602", "tautological-check", Severity.WARNING,
    "a check's validator holds for every value its query can produce",
)
def tautological_check(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for state, index, noun, check, query, interval in model.condition_analyses:
        validator = check.condition.validator
        if not always_holds(interval, validator.op, validator.bound):
            continue
        if noun == "steady-state hypothesis":
            consequence = (
                "the hypothesis is not falsifiable — it holds under any "
                "fault, so the game day tests nothing"
            )
        elif isinstance(check, ExceptionCheck):
            consequence = "the guard can never trigger and is dead weight"
        else:
            consequence = "the check can never fail and carries no signal"
        yield tautological_check.rule.diagnostic(
            f"{noun} {check.name!r} is tautological: {query.query!r} is "
            f"provably within {interval}, so validator "
            f"'{validator}' always holds (absent data still fails) "
            f"— {consequence}",
            span=_check_span(model, state, index, check),
            state=state,
            fix="tighten the validator bound so the condition can "
            "distinguish healthy from unhealthy",
        )


# -- BF603: bounded symbolic exploration of exposure -------------------------


def _apply_routes(
    model: LintModel, vector: dict[str, float], state: State
) -> dict[str, float]:
    """Entering *state* updates exposure only for services it routes;
    everything else keeps its previous routing, like the engine does."""
    updated = dict(vector)
    for service, routing in state.routing.items():
        updated[service] = model.exposed(service, routing)
    return updated


@rule(
    "BF603", "unchecked-blast-radius-jump", Severity.WARNING,
    "a transition raises exposure sharply although the preceding phase "
    "ran no checks",
)
def blast_radius_jump(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    threshold = config.max_exposure_jump
    start = model.start
    if start is None or start not in model.states:
        return
    start_state = model.states[start]
    initial = _apply_routes(model, {}, start_state)
    reported: set[tuple[str | None, str, str]] = set()
    for service in sorted(initial):
        if initial[service] > threshold:
            reported.add((None, start, service))
            yield blast_radius_jump.rule.diagnostic(
                f"the strategy opens {service!r} at "
                f"{initial[service]:g}% non-stable exposure — no earlier "
                f"checked phase can catch a bad version (threshold "
                f"{threshold:g} points, lint.options.maxExposureJump)",
                span=model.span("state", start),
                state=start,
                fix="start with a smaller canary slice, or add a checked "
                "phase before the jump",
            )
    queue: deque[tuple[str, dict[str, float]]] = deque([(start, initial)])
    seen = {(start, frozenset(initial.items()))}
    steps = 0
    while queue and steps < MAX_EXPLORATION_STEPS:
        steps += 1
        name, vector = queue.popleft()
        state = model.states[name]
        unchecked = not state.checks
        for successor_name in model.successors(name):
            successor = model.states[successor_name]
            updated = _apply_routes(model, vector, successor)
            if unchecked:
                for service in sorted(updated):
                    jump = updated[service] - vector.get(service, 0.0)
                    key = (name, successor_name, service)
                    if jump > threshold and key not in reported:
                        reported.add(key)
                        yield blast_radius_jump.rule.diagnostic(
                            f"entering {successor_name!r} raises "
                            f"{service!r} exposure from "
                            f"{vector.get(service, 0.0):g}% to "
                            f"{updated[service]:g}%, but the preceding "
                            f"phase {name!r} runs no checks — nothing "
                            f"could have vetoed the jump (threshold "
                            f"{threshold:g} points, "
                            f"lint.options.maxExposureJump)",
                            span=model.span("state", successor_name),
                            state=successor_name,
                            fix=f"add checks to {name!r} or insert an "
                            "intermediate checked phase",
                        )
            if successor.final:
                continue  # final states end enactment; no further paths
            marker = (successor_name, frozenset(updated.items()))
            if marker not in seen:
                seen.add(marker)
                queue.append((successor_name, updated))


# -- BF604: shadow fan-out amplification -------------------------------------


@rule(
    "BF604", "shadow-amplification", Severity.WARNING,
    "a state's shadow routes duplicate more traffic than the declared bound",
)
def shadow_amplification(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    bound = config.max_shadow_fanout
    for name, state in model.states.items():
        for service, routing in state.routing.items():
            total = sum(
                shadow.percentage
                for shadow in routing.shadows
                if shadow.percentage > 0
            )
            if total <= bound:
                continue
            yield shadow_amplification.rule.diagnostic(
                f"state {name!r} shadows {total:g}% of {service!r} "
                f"traffic ({total / 100.0:.2f}x duplication) — beyond the "
                f"declared bound of {bound:g}% "
                f"(lint.options.maxShadowFanout); the fan-out multiplies "
                f"upstream load and shadow-queue pressure",
                span=model.element_span("route", name, service),
                state=name,
                fix="lower the shadow percentages or raise "
                "lint.options.maxShadowFanout explicitly",
            )


# -- BF605: chaos × steady-state contradiction -------------------------------


@rule(
    "BF605", "chaos-hypothesis-contradiction", Severity.ERROR,
    "a rate-1.0 fault fails the very provider the steady-state hypothesis "
    "reads through",
    blocking=True,
)
def chaos_hypothesis_contradiction(
    model: LintModel, config: LintConfig
) -> Iterator[Diagnostic]:
    for position, fault in enumerate(model.faults):
        kind, _, provider = fault.target.partition(":")
        if kind != "provider" or not provider:
            continue
        mode = fault.mode
        if mode not in ("error", "hang"):
            continue  # latency/open leave reads answering eventually
        if fault.rate < 1.0:
            continue
        for index, check in enumerate(model.steady):
            queries = check.condition.queries
            if all(query.provider != provider for query in queries):
                continue
            if (
                isinstance(check, ExceptionCheck)
                and check.on_provider_error.mode == "hold"
            ):
                consequence = (
                    "with onProviderError: hold the hypothesis is blinded "
                    "for the whole fault window — it can never be "
                    "falsified while the fault runs"
                )
            else:
                consequence = (
                    "every read fails while the fault is armed, so the "
                    "hypothesis is falsified by the fault itself, not by "
                    "the system under test"
                )
            related = []
            span = _check_span(model, None, index, check)
            if span is not None:
                related.append(
                    ("the hypothesis reads through this provider", span)
                )
            yield chaos_hypothesis_contradiction.rule.diagnostic(
                f"fault {fault.name!r} fails provider {provider!r} at "
                f"rate 1.0 (mode {mode!r}), and steady-state hypothesis "
                f"{check.name!r} reads through that same provider — "
                f"{consequence}",
                span=model.span("fault", position),
                related=related,
                fix="lower the fault rate below 1.0, target a different "
                "provider, or read the hypothesis through an unfaulted "
                "provider",
            )


__all__ = [
    "MAX_EXPLORATION_STEPS",
    "blast_radius_jump",
    "chaos_hypothesis_contradiction",
    "shadow_amplification",
    "tautological_check",
    "unsatisfiable_check",
]
