"""The rule catalogue.

Each rule is a generator over a :class:`~repro.lint.model.LintModel` —
the compiled :class:`~repro.core.model.Strategy` with its context —
registered with :func:`~repro.lint.registry.rule`.  Rules read the core
model's own types (states, checks, routing configurations, fault specs);
a rule that crashes anyway becomes an "internal error" warning, never an
exception.  What the DSL compiler rejects (BF002, BF105, BF201, BF202,
malformed BF501 targets) it reports itself; those codes are declared here
so configuration, suppressions and baselines key on them.

``docs/lint.md`` is the catalogue of every code (``bifrost explain``
reads it back).  The BF6xx semantic rules (abstract interpretation of
check conditions, symbolic exposure exploration, chaos × steady-state
contradictions) live in :mod:`repro.lint.semantic`.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..core.checks import BasicCheck, Check, ExceptionCheck
from .diagnostics import Diagnostic, LintConfig, Severity
from .model import LintModel
from .registry import declare, rule

# BF0xx rules are raised by the engine itself, not by a model pass.
PARSE_ERROR = declare(
    "BF001", "parse-error", Severity.ERROR,
    "the document is not in the supported YAML subset", blocking=True,
)
COMPILE_ERROR = declare(
    "BF002", "compile-error", Severity.ERROR,
    "the document does not compile into the release model", blocking=True,
)
BAD_LINT_CONFIG = declare(
    "BF003", "bad-lint-config", Severity.WARNING,
    "the document's lint: section is malformed",
)
# The compiler reports these itself (DslError.code).
declare(
    "BF105", "bad-thresholds", Severity.ERROR,
    "a threshold list has gaps, overlaps, duplicates, or non-finite values",
    blocking=True,
)
declare(
    "BF201", "split-overflow", Severity.ERROR,
    "a state's live traffic splits exceed 100% or are otherwise invalid",
    blocking=True,
)
declare(
    "BF202", "unknown-version", Severity.ERROR,
    "a routed version (or service) is absent from the deployment part",
    blocking=True,
)


# -- shared graph helpers ---------------------------------------------------


def _reached(model: LintModel) -> set[str]:
    if model.start is None or model.start not in model.states:
        return set(model.states)
    return {model.start} | model.reachable_from(model.start)


def _can_reach_final(model: LintModel) -> set[str]:
    """States from which at least one final state is reachable."""
    reverse: dict[str, list[str]] = {name: [] for name in model.states}
    for name in model.states:
        for successor in model.successors(name):
            reverse[successor].append(name)
    seen = set(model.final_states())
    queue = list(seen)
    while queue:
        for predecessor in reverse[queue.pop()]:
            if predecessor not in seen:
                seen.add(predecessor)
                queue.append(predecessor)
    return seen


def _doomed_components(model: LintModel, can_finish: set[str]) -> list[list[str]]:
    """Strongly connected components that cannot reach a final state.

    Only *cyclic* components count (size > 1, or a self-loop): these are
    the live-lock shapes — enactment enters and never leaves.
    """
    index = 0
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    def strongconnect(root: str) -> None:
        nonlocal index
        work = [(root, iter(model.successors(root)))]
        indices[root] = lowlink[root] = index
        index += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index
                    index += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(model.successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    for name in model.states:
        if name not in indices:
            strongconnect(name)

    doomed = []
    for component in components:
        if any(member in can_finish for member in component):
            continue
        cyclic = len(component) > 1 or component[0] in model.successors(component[0])
        if cyclic:
            doomed.append(sorted(component))
    doomed.sort()
    return doomed


# -- BF1xx: automaton structure ---------------------------------------------


@rule(
    "BF101", "unreachable-state", Severity.ERROR,
    "a declared state can never be entered from the start state",
    blocking=True,
)
def unreachable_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    reached = _reached(model)
    entry = model.states.get(model.start or "")
    for name, state in model.states.items():
        if name not in reached:
            yield unreachable_state.rule.diagnostic(
                f"state {name!r} is unreachable from the start state"
                + (f" {model.start!r}" if entry is not None else ""),
                span=model.span("state", name),
                state=name,
                fix="add a transition leading to it, or remove the state",
            )


@rule(
    "BF102", "no-path-to-final", Severity.ERROR,
    "a state cannot reach any final state; enactment can never finish",
    blocking=True,
)
def no_path_to_final(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.states:
        return
    if not model.final_states():
        yield no_path_to_final.rule.diagnostic(
            "the strategy declares no final state; enactment cannot terminate",
            span=model.span("state", next(iter(model.states))),
        )
        return
    can_finish = _can_reach_final(model)
    reached = _reached(model)
    in_doomed_cycle = {
        member
        for component in _doomed_components(model, can_finish)
        for member in component
    }
    for name in model.states:
        if name in can_finish or name not in reached or name in in_doomed_cycle:
            continue
        yield no_path_to_final.rule.diagnostic(
            f"no final state is reachable from {name!r}; every path from "
            "here dead-ends or loops forever",
            span=model.span("state", name),
            state=name,
        )


@rule(
    "BF103", "possible-live-lock", Severity.WARNING,
    "a cycle of states has no exit toward a final state",
)
def possible_live_lock(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.final_states():
        return  # BF102 already reports the strategy-level problem
    can_finish = _can_reach_final(model)
    for component in _doomed_components(model, can_finish):
        anchor = component[0]
        yield possible_live_lock.rule.diagnostic(
            f"cycle {component} has no exit toward a final state",
            span=model.span("state", anchor),
            state=anchor,
        )


@rule(
    "BF104", "no-rollback", Severity.ERROR,
    "a state runs checks but no rollback-flagged final state is reachable",
)
def no_rollback(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    rollback_states = model.rollback_states()
    checked = [
        name
        for name, state in model.states.items()
        if not state.final and state.checks
    ]
    if not rollback_states:
        if checked:
            yield no_rollback.rule.diagnostic(
                "the strategy runs checks but declares no rollback state; "
                "a failing release has no safe exit",
                span=model.span("state", checked[0]),
                fix="mark a final state with rollback: true",
            )
        return
    for name in checked:
        if not (model.reachable_from(name) & rollback_states):
            yield no_rollback.rule.diagnostic(
                "checks run here but no rollback state is reachable; "
                "a bad outcome cannot be reverted",
                span=model.span("state", name),
                state=name,
            )


@rule(
    "BF106", "ineffective-duration", Severity.WARNING,
    "a state's declared duration is shorter than one check interval",
)
def ineffective_duration(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final or state.duration is None or not state.checks:
            continue
        slowest = state.checks[0]
        for check in state.checks:
            if check.timer.interval > slowest.timer.interval:
                slowest = check
        interval = slowest.timer.interval
        if state.duration < interval:
            yield ineffective_duration.rule.diagnostic(
                f"declared duration {state.duration:g}s is shorter than one "
                f"interval of check {slowest.name!r} ({interval:g}s); "
                "check timers dominate and the duration never takes effect",
                span=model.span("state", name),
                state=name,
            )


@rule(
    "BF107", "unknown-state", Severity.ERROR,
    "a transition or fallback targets a state that does not exist",
    blocking=True,
)
def unknown_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for target in state.successors:
            if target in model.states:
                continue
            yield unknown_state.rule.diagnostic(
                f"state {name!r} references unknown state {target!r}",
                span=model.span("state", name),
                state=name,
            )


# -- BF2xx: routing ---------------------------------------------------------


@rule(
    "BF203", "unroutable-version", Severity.WARNING,
    "a deployed version is never routed or shadowed by any state",
)
def unroutable_version(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    services = model.strategy.services
    routed: dict[str, set[str]] = {service: set() for service in services}
    for state in model.states.values():
        for service, routing in state.routing.items():
            bucket = routed.setdefault(service, set())
            bucket.update(split.version for split in routing.splits)
            for shadow in routing.shadows:
                bucket.update((shadow.source_version, shadow.target_version))
    for service, declared in services.items():
        for version in sorted(set(declared.versions) - routed.get(service, set())):
            yield unroutable_version.rule.diagnostic(
                f"version {version!r} of service {service!r} is declared "
                "but never routed or shadowed",
                fix="route it in some state, or drop it from the deployment",
            )


@rule(
    "BF204", "sticky-discontinuity", Severity.INFO,
    "a sticky state is followed by a non-sticky state for the same service",
)
def sticky_discontinuity(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        targets = state.transitions.targets if state.transitions else ()
        for service, routing in state.routing.items():
            if not routing.sticky:
                continue
            for target in dict.fromkeys(targets):
                successor = model.states.get(target)
                if successor is None or target == name or successor.final:
                    continue
                follow = successor.routing.get(service)
                if follow is not None and not follow.sticky:
                    yield sticky_discontinuity.rule.diagnostic(
                        f"sticky routing of {service!r} is followed by "
                        f"non-sticky state {target!r}; assignments may churn",
                        span=model.element_span("route", name, service),
                        state=name,
                    )


@rule(
    "BF205", "shadow-live-target", Severity.WARNING,
    "a shadow route duplicates traffic onto a version already serving live traffic",
)
def shadow_live_target(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for service, routing in state.routing.items():
            live = {split.version for split in routing.splits if split.percentage > 0}
            for shadow in routing.shadows:
                source, target = shadow.source_version, shadow.target_version
                if target == source:
                    yield shadow_live_target.rule.diagnostic(
                        f"shadow route of service {service!r} duplicates "
                        f"{source!r} onto itself",
                        span=model.element_span("route", name, service),
                        state=name,
                    )
                elif target in live:
                    yield shadow_live_target.rule.diagnostic(
                        f"shadow route of service {service!r} targets "
                        f"{target!r}, which already serves live traffic in "
                        "this state; it would process duplicated load",
                        span=model.element_span("route", name, service),
                        state=name,
                    )


# -- BF3xx: checks and metric queries ---------------------------------------


@rule(
    "BF301", "bad-metric-query", Severity.ERROR,
    "a metric query does not compile and can never return data",
    blocking=True,
)
def bad_metric_query(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    from ..metrics.compile import compile_query

    # chaos steady-state hypotheses are ordinary checks; their queries
    # must compile just like phase checks' queries do.
    groups: list[tuple[str | None, str, list[Check]]] = [
        (name, name, state.checks) for name, state in model.states.items()
    ]
    if model.steady:
        groups.append((None, "<chaos.steadyState>", model.steady))
    for owner, name, checks in groups:
        seen: set[str] = set()
        for index, check in enumerate(checks):
            for position, query in enumerate(check.condition.queries):
                # metrics/compile.py speaks the PromQL subset; queries
                # bound to other providers use whatever syntax that
                # provider accepts and cannot be checked statically.
                if query.provider != "prometheus" or query.query in seen:
                    continue
                seen.add(query.query)
                try:
                    compile_query(query.query)
                except Exception as exc:  # a QueryError, or any crash of it
                    yield bad_metric_query.rule.diagnostic(
                        f"metric query {query.query!r} of check "
                        f"{check.name!r} does not compile: {exc}",
                        span=model.span("query", owner, index, position)
                        or model.element_span("check", owner, index),
                        state=name,
                    )


@rule(
    "BF302", "zero-weight-check", Severity.WARNING,
    "a basic check has weight 0 and never influences the state outcome",
)
def zero_weight_check(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for index, (check, weight) in enumerate(zip(state.checks, state.weights)):
            if isinstance(check, BasicCheck) and weight == 0:
                yield zero_weight_check.rule.diagnostic(
                    f"basic check {check.name!r} has weight 0; its result "
                    "never influences the state outcome",
                    span=model.element_span("check", name, index),
                    state=name,
                    fix="give it a positive weight, or remove the check",
                )


def _describe_range(thresholds: tuple[float, ...], index: int) -> str:
    if index == 0:
        return f"(-inf, {thresholds[0]:g}]"
    if index == len(thresholds):
        return f"({thresholds[-1]:g}, +inf)"
    return f"({thresholds[index - 1]:g}, {thresholds[index]:g}]"


@rule(
    "BF303", "dead-outcome", Severity.WARNING,
    "an output mapping range can never fire given the check's repetitions",
)
def dead_outcome(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for position, check in enumerate(state.checks):
            if not isinstance(check, BasicCheck):
                continue
            # Timer guarantees repetitions >= 1, OutputMapping sorted,
            # finite thresholds and one result per range.
            repetitions = check.timer.repetitions
            thresholds = check.output.ranges.thresholds
            for index, result in enumerate(check.output.results):
                low = -math.inf if index == 0 else thresholds[index - 1]
                high = math.inf if index == len(thresholds) else thresholds[index]
                smallest = 0 if low == -math.inf else math.floor(low) + 1
                largest = repetitions if high == math.inf else math.floor(high)
                if max(smallest, 0) > min(largest, repetitions):
                    yield dead_outcome.rule.diagnostic(
                        f"check {check.name!r}: outcome {result} for range "
                        f"{_describe_range(thresholds, index)} can never fire "
                        f"— the aggregated result is always within "
                        f"[0, {repetitions}]",
                        span=model.element_span("check", name, position),
                        state=name,
                    )


@rule(
    "BF304", "unguarded-exposure", Severity.WARNING,
    "an exception check uses the default trigger-on-provider-error policy "
    "while most traffic is exposed",
)
def unguarded_exposure(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final:
            continue
        exposed = model.exposure(state)
        if exposed <= config.max_unguarded_exposure:
            continue
        for index, check in enumerate(state.checks):
            if (
                isinstance(check, ExceptionCheck)
                and check.on_provider_error.mode == "trigger"
            ):
                yield unguarded_exposure.rule.diagnostic(
                    f"exception check {check.name!r} treats provider errors "
                    f"as failures (default onProviderError: trigger) while "
                    f"{exposed:g}% of traffic is exposed; a monitoring blip "
                    "would abort a mostly-promoted release",
                    span=model.element_span("check", name, index),
                    state=name,
                    fix="set onProviderError: tolerate(n) or hold",
                )


@rule(
    "BF305", "unmonitored-exposure", Severity.WARNING,
    "a state exposes a non-stable version to live traffic without any checks",
)
def unmonitored_exposure(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final or state.checks:
            continue
        for service, routing in state.routing.items():
            stable = model.stable_version(service, routing)
            exposed = [
                split.version
                for split in routing.splits
                if split.percentage > 0 and split.version != stable
            ]
            if exposed:
                yield unmonitored_exposure.rule.diagnostic(
                    f"routes {exposed} of service {service!r} to live "
                    "traffic without any checks",
                    span=model.element_span("route", name, service),
                    state=name,
                )


# -- BF4xx: deployment and resilience ---------------------------------------


@rule(
    "BF401", "bad-safe-routing", Severity.ERROR,
    "a safe-routing override names an unknown service or version",
    blocking=True,
)
def bad_safe_routing(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    services = model.strategy.services
    if not model.safe_routing or not services:
        return
    for service, routing in model.safe_routing.items():
        if service not in services:
            yield bad_safe_routing.rule.diagnostic(
                f"safe_routing names service {service!r}, which the strategy "
                "does not declare",
            )
            continue
        declared = services[service].versions
        versions = [split.version for split in routing.splits]
        versions.extend(shadow.target_version for shadow in routing.shadows)
        for version in dict.fromkeys(versions):
            if version not in declared:
                yield bad_safe_routing.rule.diagnostic(
                    f"safe_routing for service {service!r} names unknown "
                    f"version {version!r} (known: {sorted(declared)})",
                )


@rule(
    "BF402", "final-with-checks", Severity.WARNING,
    "a final state declares checks that will never run",
)
def final_with_checks(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final and state.checks:
            yield final_with_checks.rule.diagnostic(
                f"final state {name!r} declares {len(state.checks)} check(s); "
                "final states end enactment and never run checks",
                span=model.span("state", name),
                state=name,
                fix="move the checks into the preceding phase",
            )


@rule(
    "BF403", "shared-proxy", Severity.WARNING,
    "two services are deployed behind the same proxy endpoint",
)
def shared_proxy(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if model.deployment is None:
        return
    by_address: dict[str, list[str]] = {}
    for service, deployed in model.deployment.services.items():
        by_address.setdefault(deployed.proxy, []).append(service)
    for address in sorted(by_address):
        services = by_address[address]
        if len(services) > 1:
            yield shared_proxy.rule.diagnostic(
                f"services {sorted(services)} share proxy endpoint "
                f"{address!r}; reconfiguring one clobbers the other",
                span=model.span("proxy", services[0]),
            )


# -- BF5xx: chaos campaigns -------------------------------------------------


@rule(
    "BF501", "unknown-fault-target", Severity.ERROR,
    "a chaos fault targets nothing that exists",
    blocking=True,
)
def unknown_fault_target(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.faults:
        return
    checks = [
        *(check for state in model.states.values() for check in state.checks),
        *model.steady,
    ]
    referenced_providers = {
        query.provider for check in checks for query in check.condition.queries
    }
    services = model.strategy.services
    for index, fault in enumerate(model.faults):
        kind, target_name = fault.target_kind, fault.target_name
        if kind in ("upstream", "endpoint") and services:
            service = target_name.split("/", 1)[0]
            if service not in services:
                yield unknown_fault_target.rule.diagnostic(
                    f"fault {fault.name!r} targets unknown service "
                    f"{service!r}; declared: {sorted(services)}",
                    span=model.span("fault", index),
                )
            elif kind == "endpoint":
                version = target_name.split("/", 1)[1]
                declared = services[service].versions
                if version not in declared:
                    yield unknown_fault_target.rule.diagnostic(
                        f"fault {fault.name!r} targets unknown version "
                        f"{version!r} of service {service!r}; declared: "
                        f"{sorted(declared)}",
                        span=model.span("fault", index),
                    )
        elif kind == "provider" and referenced_providers:
            if target_name not in referenced_providers:
                yield unknown_fault_target.rule.diagnostic(
                    f"fault {fault.name!r} targets provider {target_name!r}, "
                    "which no check in the document queries; the fault would "
                    "never be observed",
                    span=model.span("fault", index),
                    fix="target a provider a check uses, or drop the fault",
                )


@rule(
    "BF502", "fault-outside-phase", Severity.ERROR,
    "a fault schedule is not scoped to any declared phase",
    blocking=True,
)
def fault_outside_phase(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for index, fault in enumerate(model.faults):
        if not fault.phases:
            yield fault_outside_phase.rule.diagnostic(
                f"fault {fault.name!r} has no 'during' phases; it would "
                "never arm",
                span=model.span("fault", index),
                fix="add during: [<phase>, ...] naming automaton phases",
            )
            continue
        if not model.states:
            continue
        for phase in fault.phases:
            if phase not in model.states:
                yield fault_outside_phase.rule.diagnostic(
                    f"fault {fault.name!r} is scheduled during unknown "
                    f"phase {phase!r}",
                    span=model.span("fault", index),
                )


@rule(
    "BF503", "missing-steady-state", Severity.ERROR,
    "chaos faults are declared without any steady-state hypothesis",
    blocking=True,
)
def missing_steady_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if model.faults and not model.steady:
        yield missing_steady_state.rule.diagnostic(
            "the campaign declares faults but no steadyState checks; a game "
            "day without a hypothesis is just an outage",
            fix="add steadyState: checks the system must keep passing",
        )
