"""The lint engine's view of a strategy.

Rules do not operate on raw YAML or on the compiled model directly; they
operate on a :class:`LintModel` — a deliberately *tolerant* extraction
that can be built from either source:

* :meth:`LintModel.from_document` walks a parsed (located) DSL document
  and keeps going past almost any malformation, so structural rules still
  run on documents the compiler rejects (the whole point of a linter);
* :meth:`LintModel.from_strategy` projects an in-memory
  :class:`~repro.core.model.Strategy`, so the engine's enactment gate
  and ``bifrost lint`` share the same rules.

Document-built models carry :class:`~repro.lint.diagnostics.SourceSpan`
anchors resolved from the parser's located nodes; strategy-built models
have no spans and diagnostics fall back to state names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..core.checks import BasicCheck, ExceptionCheck
from ..core.model import Strategy
from ..core.routing import RoutingConfig
from ..dsl.yaml_lite import item_line, key_column, key_line, node_column, node_line
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
    #: Raw (unvalidated) ``thresholds:`` list from the document, for BF105.
    raw_output_thresholds: list[Any] | None = None
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
    #: Document-built models list only *explicit* route percentages — the
    #: implicit stable remainder is not materialized.
    splits: list[tuple[str, float]] = field(default_factory=list)
    #: Shadow duplications, (source version or None for stable, target, percent).
    shadows: list[tuple[str | None, str, float]] = field(default_factory=list)
    sticky: bool = False
    #: Sum of the explicit live percentages (may exceed 100 in bad docs).
    explicit_total: float = 0.0
    #: Strategy-built models keep the real config for exact validation.
    config: RoutingConfig | None = None
    span: SourceSpan | None = None


@dataclass
class ChaosFaultInfo:
    """One declared fault of a ``chaos:`` campaign section."""

    name: str
    target: str
    phases: list[str] = field(default_factory=list)
    #: Fault mode (``error``/``latency``/``hang``/``open``); the chaos
    #: layer's default is ``error`` when the document omits it.
    mode: str | None = None
    #: Injection rate in [0, 1]; the chaos layer's default is 1.0.
    rate: float | None = None
    span: SourceSpan | None = None


@dataclass
class StateInfo:
    """One automaton state (or one phase of a document)."""

    name: str
    final: bool = False
    rollback: bool = False
    duration: float | None = None
    #: Transition targets (next / onFailure / explicit transitions).
    targets: list[str] = field(default_factory=list)
    #: Exception-check fallback states (also edges of the automaton).
    fallbacks: list[str] = field(default_factory=list)
    #: Raw (unvalidated) ``transitions: thresholds`` from the document.
    raw_thresholds: list[Any] | None = None
    #: Number of targets the explicit transitions block declares.
    raw_target_count: int | None = None
    thresholds_span: SourceSpan | None = None
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
    #: Declared versions per service (deployment part / strategy services).
    services: dict[str, list[str]] = field(default_factory=dict)
    #: Known stable version per service (document-built models only).
    stable: dict[str, str] = field(default_factory=dict)
    #: Proxy address per service (document-built models only).
    proxies: dict[str, str] = field(default_factory=dict)
    proxy_spans: dict[str, SourceSpan | None] = field(default_factory=dict)
    #: Engine-side safe-routing overrides to validate (BF401).
    safe_routing: dict[str, RoutingConfig] | None = None
    #: True when the model was built from a source document.
    has_source: bool = False
    #: Chaos campaign extraction (``chaos:`` section / attached campaign).
    has_chaos: bool = False
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

        Document-built models know the deployment's stable version;
        strategy-built models fall back to the first-split convention the
        legacy verifier used.
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
    ) -> "LintModel":
        """Project an in-memory strategy.  Never raises on a broken one."""
        model = cls(name=getattr(strategy, "name", "") or "", has_source=False)
        model.safe_routing = safe_routing
        if campaign is not None:
            model.has_chaos = True
            for spec in getattr(campaign, "specs", ()) or ():
                raw_rate = getattr(spec, "rate", None)
                model.chaos_faults.append(
                    ChaosFaultInfo(
                        name=str(getattr(spec, "name", "")),
                        target=str(getattr(spec, "target", "")),
                        phases=[str(p) for p in getattr(spec, "phases", ()) or ()],
                        mode=str(getattr(spec, "mode", "error")),
                        rate=float(raw_rate) if raw_rate is not None else None,
                    )
                )
            for index, check in enumerate(
                getattr(campaign, "steady_state", ()) or ()
            ):
                model.chaos_steady.append(_check_from_model(check, [], index))
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
            )
            transitions = getattr(state, "transitions", None)
            if transitions is not None:
                info.targets = [str(t) for t in getattr(transitions, "targets", ())]
            weights = list(getattr(state, "weights", ()))
            for index, check in enumerate(getattr(state, "checks", ())):
                info.checks.append(_check_from_model(check, weights, index))
                fallback = getattr(check, "fallback_state", None)
                if fallback is not None:
                    info.fallbacks.append(str(fallback))
            for service_name, config in getattr(state, "routing", {}).items():
                info.routes[service_name] = _route_from_config(service_name, config)
            model.states[info.name] = info
        if model.start is None and model.states:
            model.start = next(iter(model.states))
        return model

    @classmethod
    def from_document(cls, document: Any, file: str | None = None) -> "LintModel":
        """Tolerantly extract a model from a parsed DSL document."""
        model = cls(file=file, has_source=True)
        if not isinstance(document, dict):
            return model
        _extract_deployment(model, document.get("deployment"))
        _extract_chaos(model, document.get("chaos"))
        strategy = document.get("strategy")
        if not isinstance(strategy, dict):
            return model
        raw_name = strategy.get("name")
        model.name = raw_name if isinstance(raw_name, str) else ""
        phases = strategy.get("phases")
        if not isinstance(phases, list):
            return model
        for index, item in enumerate(phases):
            _extract_phase(model, phases, item, index)
        if model.start is None and model.states:
            model.start = next(iter(model.states))
        return model

    def span_at(
        self,
        line: int | None,
        column: int | None = None,
        end_column: int | None = None,
    ) -> SourceSpan | None:
        if line is None and self.file is None:
            return None
        return SourceSpan(
            line=line, file=self.file, column=column, end_column=end_column
        )

    def key_span(self, mapping: Any, key: str) -> SourceSpan | None:
        """A span anchored at ``key:`` inside a located mapping.

        Carries the key token's exact column range when the parser
        recorded it, so renderers (SARIF in particular) can emit
        1-based ``startColumn``/``endColumn``.
        """
        column = key_column(mapping, key)
        return self.span_at(
            key_line(mapping, key),
            column,
            column + len(key) if column is not None else None,
        )


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
    info = RouteInfo(service=service, config=config)
    for split in getattr(config, "splits", ()) or ():
        info.splits.append((str(split.version), float(split.percentage)))
    info.explicit_total = sum(percent for _, percent in info.splits)
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


# -- document extraction helpers -------------------------------------------


def _extract_deployment(model: LintModel, deployment: Any) -> None:
    if not isinstance(deployment, dict):
        return
    services = deployment.get("services")
    if not isinstance(services, dict):
        return
    for name, body in services.items():
        if not isinstance(body, dict):
            continue
        versions = body.get("versions")
        names = [str(v) for v in versions] if isinstance(versions, dict) else []
        model.services[str(name)] = names
        stable = body.get("stable")
        if isinstance(stable, str):
            model.stable[str(name)] = stable
        elif names:
            model.stable[str(name)] = names[0]
        proxy = body.get("proxy")
        if isinstance(proxy, str):
            model.proxies[str(name)] = proxy
            model.proxy_spans[str(name)] = model.key_span(body, "proxy")


def _extract_phase(model: LintModel, phases: Any, item: Any, index: int) -> None:
    if not isinstance(item, dict) or len(item) != 1:
        return
    kind, body = next(iter(item.items()))
    if kind not in ("phase", "rollout", "final") or not isinstance(body, dict):
        return
    raw_name = body.get("name")
    name = raw_name if isinstance(raw_name, str) else f"<phases[{index}]>"
    if name in model.states:
        return  # duplicate names: keep the first, the compiler rejects anyway
    info = StateInfo(
        name=name,
        span=model.span_at(
            node_line(body) or item_line(phases, index), node_column(body)
        ),
    )
    if kind == "final":
        info.final = True
        info.rollback = body.get("rollback") is True
        _extract_routes(model, info, body.get("routes"))
        # `final` phases take no checks; a `checks:` key here is dead weight
        # the compiler rejects — surface it through BF402 regardless.
        _extract_checks(model, info, body.get("checks"))
    elif kind == "phase":
        _extract_routes(model, info, body.get("routes"))
        _extract_checks(model, info, body.get("checks"))
        duration = body.get("duration")
        if isinstance(duration, (int, float)) and not isinstance(duration, bool):
            info.duration = float(duration)
        for key in ("next", "onFailure"):
            target = body.get(key)
            if isinstance(target, str):
                info.targets.append(target)
        transitions = body.get("transitions")
        if isinstance(transitions, dict):
            thresholds = transitions.get("thresholds")
            if isinstance(thresholds, list):
                info.raw_thresholds = list(thresholds)
                info.thresholds_span = model.key_span(transitions, "thresholds")
            targets = transitions.get("targets")
            if isinstance(targets, list):
                info.raw_target_count = len(targets)
                info.targets.extend(t for t in targets if isinstance(t, str))
    else:  # rollout
        _extract_rollout(model, info, body)
    if model.start is None:
        model.start = name
    model.states[name] = info


def _extract_rollout(model: LintModel, info: StateInfo, body: dict[str, Any]) -> None:
    """A rollout phase becomes one model state at its peak exposure."""
    service = body.get("from")
    version = body.get("to")
    target_pct = body.get("targetPercentage")
    percent = (
        float(target_pct)
        if isinstance(target_pct, (int, float)) and not isinstance(target_pct, bool)
        else 100.0
    )
    if isinstance(service, str) and isinstance(version, str):
        route = RouteInfo(
            service=service,
            splits=[(version, percent)],
            explicit_total=percent,
            span=info.span,
        )
        info.routes[service] = route
    interval = body.get("intervalTime")
    if isinstance(interval, (int, float)) and not isinstance(interval, bool):
        info.duration = float(interval)
    for key in ("next", "onFailure"):
        target = body.get(key)
        if isinstance(target, str):
            info.targets.append(target)
    _extract_checks(model, info, body.get("checks"))


def _extract_routes(model: LintModel, info: StateInfo, raw: Any) -> None:
    if not isinstance(raw, list):
        return
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"route"}:
            continue
        route = item["route"]
        if not isinstance(route, dict):
            continue
        service = route.get("from")
        version = route.get("to")
        if not isinstance(service, str) or not isinstance(version, str):
            continue
        bucket = info.routes.get(service)
        if bucket is None:
            bucket = RouteInfo(
                service=service,
                span=model.span_at(node_line(route) or item_line(raw, index)),
            )
            info.routes[service] = bucket
        filters = route.get("filters")
        if not isinstance(filters, list):
            continue
        for filter_item in filters:
            if not isinstance(filter_item, dict):
                continue
            traffic = filter_item.get("traffic")
            if not isinstance(traffic, dict):
                continue
            raw_pct = traffic.get("percentage", 100.0)
            percent = (
                float(raw_pct)
                if isinstance(raw_pct, (int, float)) and not isinstance(raw_pct, bool)
                else 0.0
            )
            bucket.sticky = bucket.sticky or traffic.get("sticky") is True
            if traffic.get("shadow") is True:
                bucket.shadows.append((None, version, percent))
            else:
                bucket.splits.append((version, percent))
                bucket.explicit_total += percent


def _extract_checks(model: LintModel, info: StateInfo, raw: Any) -> None:
    if not isinstance(raw, list):
        return
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"metric"}:
            continue
        metric = item["metric"]
        if not isinstance(metric, dict):
            continue
        raw_name = metric.get("name")
        check = CheckInfo(
            name=raw_name if isinstance(raw_name, str) else f"<checks[{index}]>",
            kind="basic",
            span=model.span_at(node_line(metric) or item_line(raw, index)),
        )
        kind = metric.get("type")
        if isinstance(kind, str):
            check.kind = kind if kind in ("basic", "exception") else "unknown"
        weight = metric.get("weight")
        if isinstance(weight, (int, float)) and not isinstance(weight, bool):
            check.weight = float(weight)
        elif check.kind == "basic":
            check.weight = 1.0
        interval = metric.get("intervalTime")
        if isinstance(interval, (int, float)) and not isinstance(interval, bool):
            check.interval = float(interval)
        repetitions = metric.get("intervalLimit")
        if isinstance(repetitions, int) and not isinstance(repetitions, bool):
            check.repetitions = repetitions
        fallback = metric.get("fallback")
        if isinstance(fallback, str):
            check.fallback = fallback
            info.fallbacks.append(fallback)
        policy = metric.get("onProviderError")
        if isinstance(policy, str):
            check.provider_error_policy = policy
        validator = metric.get("validator")
        if isinstance(validator, str):
            check.validator = validator
            check.validator_span = model.key_span(metric, "validator")
        subject = metric.get("subject")
        if isinstance(subject, str):
            check.subject = subject
        _extract_queries(model, check, metric)
        _extract_output(check, metric)
        info.checks.append(check)


def _extract_chaos(model: LintModel, chaos: Any) -> None:
    if not isinstance(chaos, dict):
        return
    model.has_chaos = True
    faults = chaos.get("faults")
    if isinstance(faults, list):
        for index, item in enumerate(faults):
            if not isinstance(item, dict) or set(item) != {"fault"}:
                continue
            body = item["fault"]
            if not isinstance(body, dict):
                continue
            target = body.get("target")
            raw_name = body.get("name")
            phases = body.get("during")
            raw_mode = body.get("mode")
            raw_rate = body.get("rate")
            model.chaos_faults.append(
                ChaosFaultInfo(
                    name=(
                        raw_name
                        if isinstance(raw_name, str)
                        else f"<faults[{index}]>"
                    ),
                    target=target if isinstance(target, str) else "",
                    phases=[p for p in phases if isinstance(p, str)]
                    if isinstance(phases, list)
                    else [],
                    # The chaos layer's defaults, so document- and
                    # strategy-built models agree on omitted keys.
                    mode=raw_mode if isinstance(raw_mode, str) else "error",
                    rate=(
                        float(raw_rate)
                        if isinstance(raw_rate, (int, float))
                        and not isinstance(raw_rate, bool)
                        else 1.0 if raw_rate is None else None
                    ),
                    span=model.span_at(
                        node_line(body) or item_line(faults, index),
                        node_column(body),
                    ),
                )
            )
    # steady-state hypotheses share the phase checks' shape exactly.
    holder = StateInfo(name="<chaos.steadyState>")
    _extract_checks(model, holder, chaos.get("steadyState"))
    model.chaos_steady.extend(holder.checks)


def _extract_queries(model: LintModel, check: CheckInfo, metric: dict[str, Any]) -> None:
    query = metric.get("query")
    if isinstance(query, str):
        provider = metric.get("provider")
        check.queries.append(
            QueryInfo(
                name=check.name,
                query=query,
                provider=provider if isinstance(provider, str) else "prometheus",
                span=model.key_span(metric, "query"),
            )
        )
    providers = metric.get("providers")
    if isinstance(providers, list):
        for item in providers:
            if not isinstance(item, dict) or len(item) != 1:
                continue
            provider_name, body = next(iter(item.items()))
            if not isinstance(body, dict):
                continue
            inner_query = body.get("query")
            if not isinstance(inner_query, str):
                continue
            inner_name = body.get("name")
            check.queries.append(
                QueryInfo(
                    name=inner_name if isinstance(inner_name, str) else check.name,
                    query=inner_query,
                    provider=str(provider_name),
                    span=model.key_span(body, "query"),
                )
            )


def _extract_output(check: CheckInfo, metric: dict[str, Any]) -> None:
    thresholds = metric.get("thresholds")
    outcomes = metric.get("outcomes")
    if isinstance(thresholds, list):
        check.raw_output_thresholds = list(thresholds)
        numbers = [
            float(t)
            for t in thresholds
            if isinstance(t, (int, float)) and not isinstance(t, bool)
        ]
        if len(numbers) == len(thresholds) and isinstance(outcomes, list):
            results = [o for o in outcomes if isinstance(o, int) and not isinstance(o, bool)]
            if len(results) == len(outcomes) and len(results) == len(numbers) + 1:
                check.output_thresholds = tuple(numbers)
                check.output_results = tuple(results)
        return
    threshold = metric.get("threshold", check.repetitions)
    if (
        isinstance(threshold, (int, float))
        and not isinstance(threshold, bool)
        and check.kind == "basic"
    ):
        check.output_thresholds = (float(threshold) - 1,)
        check.output_results = (0, 1)


__all__ = [
    "ChaosFaultInfo",
    "CheckInfo",
    "LintModel",
    "QueryInfo",
    "RouteInfo",
    "StateInfo",
]
