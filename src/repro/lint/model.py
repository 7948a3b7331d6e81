"""The lint engine's view of a strategy.

Rules do not operate on raw YAML or on the compiled model directly; they
operate on a :class:`LintModel`, a flat projection of a
:class:`~repro.core.model.Strategy` built by :meth:`LintModel.from_strategy`.
``bifrost lint`` projects what the DSL compiler built from a document —
the whole model, or the partial one of a document that does not compile
— with the compiler's span map and deployment, so diagnostics carry
:class:`~repro.lint.diagnostics.SourceSpan` anchors; the engine's
enactment gate projects an in-memory strategy, which has no spans and
whose diagnostics fall back to state names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..core.checks import BasicCheck, ExceptionCheck
from ..core.model import Strategy
from ..core.routing import RoutingConfig
from .diagnostics import SourceSpan


@dataclass
class QueryInfo:
    """One metric retrieval a check performs."""

    name: str
    query: str
    provider: str
    span: SourceSpan | None = None


@dataclass
class CheckInfo:
    """One check of a state, as far as it could be extracted."""

    name: str
    kind: str  # "basic" | "exception" | "unknown"
    weight: float | None = None
    interval: float | None = None
    repetitions: int | None = None
    queries: list[QueryInfo] = field(default_factory=list)
    #: The output mapping's thresholds/results, when determinable.
    output_thresholds: tuple[float, ...] | None = None
    output_results: tuple[int, ...] | None = None
    fallback: str | None = None
    #: The ``onProviderError`` policy text, or None when defaulted.
    provider_error_policy: str | None = None
    #: The ``validator:`` expression text (e.g. ``"< 5"``), when the check
    #: decides via a validator rather than a compare/predicate.
    validator: str | None = None
    #: The ``subject:`` query name the validator applies to, when given.
    subject: str | None = None
    validator_span: SourceSpan | None = None
    span: SourceSpan | None = None


@dataclass
class RouteInfo:
    """One state's aggregated routing of one service."""

    service: str
    #: Live (non-shadow) splits in declaration order, (version, percent).
    splits: list[tuple[str, float]] = field(default_factory=list)
    #: Shadow duplications, (source version, target version, percent).
    shadows: list[tuple[str, str, float]] = field(default_factory=list)
    sticky: bool = False
    span: SourceSpan | None = None


@dataclass
class ChaosFaultInfo:
    """One declared fault of a ``chaos:`` campaign section."""

    name: str
    target: str
    phases: list[str] = field(default_factory=list)
    #: Fault mode (``error``/``latency``/``hang``/``open``).
    mode: str | None = None
    #: Injection rate in (0, 1].
    rate: float | None = None
    span: SourceSpan | None = None


@dataclass
class StateInfo:
    """One automaton state."""

    name: str
    final: bool = False
    rollback: bool = False
    duration: float | None = None
    #: Transition targets (next / onFailure / explicit transitions).
    targets: list[str] = field(default_factory=list)
    #: Exception-check fallback states (also edges of the automaton).
    fallbacks: list[str] = field(default_factory=list)
    checks: list[CheckInfo] = field(default_factory=list)
    routes: dict[str, RouteInfo] = field(default_factory=dict)
    span: SourceSpan | None = None


@dataclass
class LintModel:
    """Everything the lint rules look at."""

    name: str = ""
    file: str | None = None
    states: dict[str, StateInfo] = field(default_factory=dict)
    start: str | None = None
    #: Declared versions per service.
    services: dict[str, list[str]] = field(default_factory=dict)
    #: Stable version per service (known when a deployment is given).
    stable: dict[str, str] = field(default_factory=dict)
    #: Proxy address per service (known when a deployment is given).
    proxies: dict[str, str] = field(default_factory=dict)
    proxy_spans: dict[str, SourceSpan | None] = field(default_factory=dict)
    #: Engine-side safe-routing overrides to validate (BF401).
    safe_routing: dict[str, RoutingConfig] | None = None
    #: Chaos campaign extraction (``chaos:`` section / attached campaign).
    chaos_faults: list[ChaosFaultInfo] = field(default_factory=list)
    chaos_steady: list[CheckInfo] = field(default_factory=list)

    # -- shared helpers rules build on ------------------------------------

    def successors(self, name: str) -> list[str]:
        """Outgoing edges of a state, restricted to known states."""
        state = self.states[name]
        seen: set[str] = set()
        out: list[str] = []
        for target in [*state.targets, *state.fallbacks]:
            if target in self.states and target not in seen:
                seen.add(target)
                out.append(target)
        return out

    def reachable_from(self, name: str) -> set[str]:
        """States reachable from *name* (excluding *name* unless cyclic)."""
        seen: set[str] = set()
        queue = [name]
        while queue:
            for successor in self.successors(queue.pop()):
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return seen

    def final_states(self) -> set[str]:
        return {name for name, state in self.states.items() if state.final}

    def rollback_states(self) -> set[str]:
        return {
            name
            for name, state in self.states.items()
            if state.final and state.rollback
        }

    def stable_version(self, route: RouteInfo) -> str | None:
        """The version exposure is measured against.

        The deployment's stable version when it is known, else the
        first-split convention the legacy verifier used.
        """
        if route.service in self.stable:
            return self.stable[route.service]
        if route.splits:
            return route.splits[0][0]
        return None

    def exposure(self, state: StateInfo) -> float:
        """Percent of live traffic the state routes to non-stable versions,
        maximized over services."""
        worst = 0.0
        for route in state.routes.values():
            stable = self.stable_version(route)
            exposed = sum(
                percent
                for version, percent in route.splits
                if version != stable and percent > 0
            )
            worst = max(worst, exposed)
        return worst

    @cached_property
    def condition_analyses(self) -> list[tuple]:
        """Every provable check condition, analysed once per model.

        ``(state, noun, check, validator, query, interval)`` rows from
        :func:`repro.lint.semantic.analyze_conditions`; BF601 and BF602
        both read them.
        """
        from .semantic import analyze_conditions

        return analyze_conditions(self)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_strategy(
        cls,
        strategy: Strategy,
        safe_routing: dict[str, RoutingConfig] | None = None,
        campaign: Any = None,
        deployment: Any = None,
        spans: dict[tuple, tuple] | None = None,
        file: str | None = None,
    ) -> "LintModel":
        """Project a strategy.  Never raises on a broken one.

        *deployment* and *spans* come with a compiled document
        (:class:`~repro.dsl.CompiledStrategy`).
        """
        spans = spans or {}

        def span(*key: Any) -> SourceSpan | None:
            found = spans.get(key)
            if found is None:
                return None if file is None else SourceSpan(file=file)
            line, column, end_column = found
            return SourceSpan(line, file, column, end_column)

        def checks_of(owner: str | None, checks: Any, weights: list) -> list[CheckInfo]:
            infos = []
            for index, check in enumerate(checks):
                info = _check_from_model(check, weights, index)
                if spans:
                    info.span = span("check", owner, index)
                    info.validator_span = span("validator", owner, index)
                    for position, query in enumerate(info.queries):
                        query.span = span("query", owner, index, position)
                infos.append(info)
            return infos

        model = cls(name=getattr(strategy, "name", "") or "", file=file)
        model.safe_routing = safe_routing
        if campaign is not None:
            for index, spec in enumerate(getattr(campaign, "specs", ()) or ()):
                rate = getattr(spec, "rate", None)
                model.chaos_faults.append(
                    ChaosFaultInfo(
                        name=str(getattr(spec, "name", "")),
                        target=str(getattr(spec, "target", "")),
                        phases=[str(p) for p in getattr(spec, "phases", ()) or ()],
                        mode=str(getattr(spec, "mode", "error")),
                        rate=float(rate) if rate is not None else None,
                        span=span("fault", index),
                    )
                )
            model.chaos_steady = checks_of(
                None, getattr(campaign, "steady_state", ()) or (), []
            )
        if deployment is not None:
            for service_name, deployed in deployment.services.items():
                model.stable[service_name] = deployed.stable
                model.proxies[service_name] = deployed.proxy
                model.proxy_spans[service_name] = span("proxy", service_name)
        for service_name, service in getattr(strategy, "services", {}).items():
            model.services[service_name] = list(getattr(service, "versions", {}))
        automaton = getattr(strategy, "automaton", None)
        if automaton is None:
            return model
        model.start = getattr(automaton, "start", None) or None
        for name, state in getattr(automaton, "states", {}).items():
            info = StateInfo(
                name=name,
                final=bool(getattr(state, "final", False)),
                rollback=bool(getattr(state, "rollback", False)),
                duration=getattr(state, "duration", None),
                span=span("state", name),
            )
            transitions = getattr(state, "transitions", None)
            if transitions is not None:
                info.targets = [str(t) for t in getattr(transitions, "targets", ())]
            info.checks = checks_of(
                name, getattr(state, "checks", ()), list(getattr(state, "weights", ()))
            )
            for check in getattr(state, "checks", ()):
                fallback = getattr(check, "fallback_state", None)
                if fallback is not None:
                    info.fallbacks.append(str(fallback))
            for service_name, config in getattr(state, "routing", {}).items():
                route = _route_from_config(service_name, config)
                route.span = span("route", name, service_name)
                info.routes[service_name] = route
            model.states[info.name] = info
        if model.start is None and model.states:
            model.start = next(iter(model.states))
        return model


# -- strategy projection helpers ------------------------------------------


def _check_from_model(check: Any, weights: list[float], index: int) -> CheckInfo:
    info = CheckInfo(name=str(getattr(check, "name", f"check[{index}]")), kind="unknown")
    if isinstance(check, BasicCheck):
        info.kind = "basic"
        output = getattr(check, "output", None)
        if output is not None:
            ranges = getattr(output, "ranges", None)
            info.output_thresholds = tuple(getattr(ranges, "thresholds", ()) or ())
            info.output_results = tuple(getattr(output, "results", ()) or ())
    elif isinstance(check, ExceptionCheck):
        info.kind = "exception"
        info.fallback = str(check.fallback_state)
        policy = getattr(check, "on_provider_error", None)
        if policy is not None and getattr(policy, "mode", "trigger") != "trigger":
            info.provider_error_policy = str(policy)
    if index < len(weights):
        info.weight = weights[index]
    timer = getattr(check, "timer", None)
    if timer is not None:
        info.interval = getattr(timer, "interval", None)
        info.repetitions = getattr(timer, "repetitions", None)
    condition = getattr(check, "condition", None)
    validator = getattr(condition, "validator", None)
    if validator is not None:
        info.validator = str(validator)
    subject = getattr(condition, "subject", None)
    if subject is not None:
        info.subject = str(subject)
    for query in getattr(condition, "queries", ()) or ():
        info.queries.append(
            QueryInfo(
                name=str(getattr(query, "name", "")),
                query=str(getattr(query, "query", "")),
                provider=str(getattr(query, "provider", "prometheus")),
            )
        )
    return info


def _route_from_config(service: str, config: RoutingConfig) -> RouteInfo:
    info = RouteInfo(service=service)
    for split in getattr(config, "splits", ()) or ():
        info.splits.append((str(split.version), float(split.percentage)))
    for shadow in getattr(config, "shadows", ()) or ():
        info.shadows.append(
            (
                str(shadow.source_version),
                str(shadow.target_version),
                float(shadow.percentage),
            )
        )
    info.sticky = bool(getattr(config, "sticky", False))
    return info


__all__ = [
    "ChaosFaultInfo",
    "CheckInfo",
    "LintModel",
    "QueryInfo",
    "RouteInfo",
    "StateInfo",
]
