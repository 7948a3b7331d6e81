"""Compiles DSL documents into the formal model.

A strategy document has two parts (paper section 4.2.2): the ``strategy``
part — phases with routes, checks, and transitions — and the
``deployment`` part mapping services to proxies and version endpoints.

Phase kinds:

* ``phase`` — one state: ``routes`` (route directives with traffic
  filters, Listing 2), ``checks`` (metric elements, Listing 1), and either
  ``next``/``onFailure`` or an explicit ``transitions`` block.
* ``rollout`` — sugar for a gradual rollout: expands into one state per
  percentage step (the paper's experiment phase 4 corresponds to 20
  states in the model).
* ``final`` — a final state (complete rollout or rollback target).

The compiler implements the *simplified* DSL semantics the paper's
prototype uses — each check has one threshold and a boolean outcome —
while explicit ``transitions``/``weight`` fields expose the full model.

The compiler is the only code that walks a strategy document, and it
does not stop at the first problem: each failing element (a deployment
service, phase, route, check, ``transitions`` block or fault) records
one :class:`DslError` and is left out.  A failed ``transitions`` block or
phase leaves its state with the declared target names as edges.  The
model's own validation runs only after a clean walk.
"""

from __future__ import annotations

import copy
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.automaton import Automaton, State, Transitions
from ..core.checks import (
    BasicCheck,
    Check,
    Comparison,
    ExceptionCheck,
    MetricCondition,
    MetricQuery,
    ProviderErrorPolicy,
    Timer,
)
from ..core.model import Service, ServiceVersion, Strategy
from ..core.outcome import OutputMapping, Validator
from ..core.routing import FilterKind, RoutingConfig, ShadowRoute, TrafficSplit
from .deployment import DeployedService, Deployment, parse_service, services_section
from .errors import DslError
from .schema import (
    bool_field,
    expect_int,
    expect_list,
    expect_map,
    expect_str,
    get_required,
    int_field,
    number_field,
    optional_str_field,
    reject_unknown_keys,
    str_field,
)
from .yaml_lite import key_column, key_line, loads, node_column, node_line

_ROOT_KEYS = {"strategy", "deployment", "lint", "chaos"}
_PHASE_KEYS = {
    "name", "duration", "routes", "checks", "next", "onFailure", "transitions"
}
_ROLLOUT_KEYS = {
    "name",
    "from",
    "to",
    "startPercentage",
    "stepPercentage",
    "targetPercentage",
    "intervalTime",
    "next",
    "onFailure",
    "checks",
}
_FINAL_KEYS = {"name", "routes", "rollback"}
_ROUTE_KEYS = {"from", "to", "filters", "filter_type", "header"}
_TRAFFIC_KEYS = {"percentage", "shadow", "sticky", "intervalTime"}
_METRIC_KEYS = {
    "name",
    "provider",
    "providers",
    "query",
    "subject",
    "compare",
    "intervalTime",
    "intervalLimit",
    "threshold",
    "thresholds",
    "outcomes",
    "validator",
    "weight",
    "type",
    "fallback",
    "onProviderError",
}
_CHAOS_KEYS = {"name", "seed", "faults", "steadyState"}
_FAULT_KEYS = {"name", "target", "mode", "rate", "latency", "message", "during"}


_COMPARE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|==|!=|<|>)\s*([A-Za-z_][A-Za-z0-9_]*)\s*$"
)


def _parse_comparison(expression: str, path: str) -> Comparison:
    match = _COMPARE.match(expression)
    if match is None:
        raise DslError(
            f"bad compare expression {expression!r}; expected "
            "'<metric> <op> <metric>'",
            path,
        )
    return Comparison(match.group(1), match.group(2), match.group(3))


#: ``(line, column, end_column)`` of a document node; parts unknown are None.
Span = tuple[int | None, int | None, int | None]


@dataclass
class CompiledStrategy:
    """The compiler's output: the model plus deployment facts.

    ``chaos`` carries the document's chaos campaign
    (:class:`~repro.resilience.chaos.ChaosCampaign`) when a ``chaos:``
    section was declared, else ``None``.

    ``spans`` maps ``("state", s)``, ``("route", s, service)``,
    ``("check" | "validator", s, i)``, ``("query", s, i, j)``, ``("fault",
    i)`` and ``("proxy", service)`` to where the document declares them
    (indices into the compiled lists; ``s`` is ``None`` for steady-state
    hypotheses, and a rollout's expanded states map to its phase).
    """

    strategy: Strategy
    deployment: Deployment
    chaos: Any = None
    spans: dict[tuple, Span] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.strategy.name


def compile_document(source: str | dict[str, Any]) -> CompiledStrategy:
    """Compile DSL text (or an already-parsed document) into the model.

    Raises the document's first :class:`DslError`; its ``errors`` lists
    every error and its ``partial`` is the model without the failed
    elements.
    """
    document = loads(source) if isinstance(source, str) else source
    compiler = _Compiler()
    compiled = compiler.compile(document)
    if compiler.errors:
        error = compiler.errors[0]
        error.errors, error.partial = compiler.errors, compiled
        raise error
    return compiled


def _key_span(mapping: Any, key: str) -> Span:
    """The span of the ``key:`` token, with its column range when known."""
    column = key_column(mapping, key)
    return (
        key_line(mapping, key),
        column,
        column + len(key) if column is not None else None,
    )


def _node_span(node: Any) -> Span:
    return (node_line(node), node_column(node), None)


def _declared_edges(body: dict[str, Any]) -> Transitions | None:
    """The target names a phase declares, its checks' fallbacks included,
    as bare edges of its state.

    Only the targets are meaningful; the ranges just keep one per target.
    """
    named = [body.get("next"), body.get("onFailure")]
    block = body.get("transitions")
    if isinstance(block, dict) and isinstance(block.get("targets"), list):
        named += block["targets"]
    for item in body.get("checks") if isinstance(body.get("checks"), list) else ():
        if isinstance(item, dict) and isinstance(item.get("metric"), dict):
            named.append(item["metric"].get("fallback"))
    targets = [target for target in named if isinstance(target, str)]
    if not targets:
        return None
    return Transitions.build(range(len(targets) - 1), targets)


def _threshold_list(raw: Any, path: str, line: int | None) -> list[float]:
    values = expect_list(raw, path)
    for index, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            message = f"threshold {value!r} is not a number"
            raise DslError(message, f"{path}[{index}]", line, "BF105")
    return [float(value) for value in values]


class _Compiler:
    def __init__(self) -> None:
        self.errors: list[DslError] = []
        self.deployment = Deployment()
        self.strategy = Strategy("")
        self.automaton = Automaton()
        self.strategy.automaton = self.automaton
        self.compiled = CompiledStrategy(self.strategy, self.deployment)
        self.spans = self.compiled.spans
        #: Services whose own deployment error already explains why a
        #: route cannot reach them; ``None`` while no deployment part
        #: compiled, when that holds for every service.
        self._broken: set[str] | None = None
        #: rollout phase name -> its first expanded state, so other phases
        #: can say ``next: <rollout-name>`` without knowing the expansion.
        self._aliases: dict[str, str] = {}
        #: rollout phase name -> every expanded state, so a chaos fault's
        #: ``during: [<rollout-name>]`` covers the whole ramp.
        self._expansions: dict[str, list[str]] = {}

    @contextmanager
    def _element(self, node: Any, path: str) -> Iterator[None]:
        """Compile one element: a failure is recorded, not raised.

        A model constructor's own check (a ``RoutingError``, an
        ``OutcomeError``, ...) becomes a :class:`DslError` at *path*, and
        an error without a line takes the element's.
        """
        try:
            yield
            return
        except DslError as exc:
            error = exc
        except Exception as exc:
            error = DslError(str(exc), path)
        if error.line is None:
            error.line = node_line(node)
        self.errors.append(error)

    def compile(self, document: Any) -> CompiledStrategy:
        root = None
        with self._element(document, "document"):
            root = expect_map(document, "document")
        if root is None:
            return self.compiled
        with self._element(root, "document"):
            reject_unknown_keys(root, _ROOT_KEYS, "document")
        with self._element(root, "deployment"):
            self._deployment_part(get_required(root, "deployment", "document"))
        phases: list[Any] = []
        with self._element(root, "strategy"):
            phases = self._strategy_part(get_required(root, "strategy", "document"))
        for index, raw in enumerate(phases):
            path = f"strategy.phases[{index}]"
            with self._element(raw, path):
                self._add_phase(raw, path)
        self._resolve_aliases()
        if root.get("chaos") is not None:
            with self._element(root["chaos"], "chaos"):
                self.compiled.chaos = self._chaos(root["chaos"])
        if not self.errors:
            self._validate_model()
        return self.compiled

    def _deployment_part(self, raw: Any) -> None:
        services = services_section(raw)
        self._broken = set()
        for name, body in services.items():
            path = f"deployment.services.{name}"
            with self._element(body, path):
                self.deployment.services[name] = parse_service(name, body, path)
                self.spans[("proxy", name)] = _key_span(body, "proxy")
            if name not in self.deployment.services:
                self._broken.add(name)
        for deployed in self.deployment.services.values():
            service = Service(deployed.name)
            for version_name, endpoint in deployed.versions.items():
                service.add_version(ServiceVersion(version_name, endpoint))
            self.strategy.add_service(service)

    def _strategy_part(self, raw: Any) -> list[Any]:
        body = expect_map(raw, "strategy")
        with self._element(body, "strategy"):
            reject_unknown_keys(body, {"name", "phases"}, "strategy")
        with self._element(body, "strategy"):
            self.strategy.name = str_field(body, "name", "strategy")
        raw_phases = get_required(body, "phases", "strategy")
        phases = expect_list(raw_phases, "strategy.phases")
        if not phases:
            raise DslError(
                "needs at least one phase", "strategy.phases", key_line(body, "phases")
            )
        return phases

    def _validate_model(self) -> None:
        """The model's own cross-reference checks, after a clean walk.

        Recorded without a document path: they judge the strategy and the
        campaign as a whole, not one element.
        """
        try:
            self.strategy.validate()
            if self.compiled.chaos is not None:
                self.compiled.chaos.validate(self.strategy)
        except Exception as exc:
            self.errors.append(DslError(f"compiled strategy is invalid: {exc}"))

    def _resolve_aliases(self) -> None:
        """Rewrite transition targets that name a rollout phase."""
        if not self._aliases:
            return
        for state in self.automaton.states.values():
            if state.transitions is not None:
                targets = tuple(
                    self._aliases.get(target, target)
                    for target in state.transitions.targets
                )
                if targets != state.transitions.targets:
                    state.transitions = Transitions(state.transitions.ranges, targets)
            for check in state.checks:
                fallback = getattr(check, "fallback_state", None)
                if fallback in self._aliases:
                    check.fallback_state = self._aliases[fallback]

    # -- phases -------------------------------------------------------------

    def _add_phase(self, raw: Any, path: str) -> None:
        mapping = expect_map(raw, path)
        if len(mapping) != 1:
            raise DslError(
                f"a phase item must have exactly one kind key "
                f"(phase/rollout/final), got {sorted(mapping)}",
                path,
            )
        kind, body = next(iter(mapping.items()))
        add = {
            "phase": self._add_plain_phase,
            "rollout": self._add_rollout,
            "final": self._add_final,
        }.get(kind)
        if add is None:
            raise DslError(
                f"unknown phase kind {kind!r}; expected phase, rollout, or final",
                path,
            )
        body_path = f"{path}.{kind}"
        body_map = expect_map(body, body_path)
        try:
            add(body_map, body_path)
        except Exception:
            # A failed phase leaves a state of its name (or path) and kind
            # whose edges are the targets it declares.
            name = body_map.get("name")
            name = name if isinstance(name, str) else f"<{path}>"
            if name not in self.automaton.states:
                final = kind == "final"
                rollback = body_map.get("rollback") is True
                state = State(name, final=final, rollback=rollback)
                state.transitions = None if final else _declared_edges(body_map)
                self._add_state(state, body_map)
            raise

    def _add_state(self, state: State, body: dict[str, Any]) -> None:
        self.automaton.add_state(state)
        self.spans[("state", state.name)] = _node_span(body)

    def _new_name(self, body: dict[str, Any], path: str, name: str) -> str:
        if name in self.automaton.states:
            raise DslError(
                f"duplicate phase name {name!r}", f"{path}.name", key_line(body, "name")
            )
        return name

    def _add_plain_phase(self, body: dict[str, Any], path: str) -> None:
        reject_unknown_keys(body, _PHASE_KEYS, path)
        name = self._new_name(body, path, str_field(body, "name", path))
        routing, route_duration = self._parse_routes(
            body.get("routes"), f"{path}.routes", name
        )
        parsed = self._parse_checks(body.get("checks"), f"{path}.checks")
        checks = [check for check, _, _ in parsed]
        weights = [weight for _, weight, _ in parsed]
        # A phase that lost a check keeps every target it declares: the
        # edges computed from the checks that compiled would drop some.
        transitions: Transitions | None = _declared_edges(body)
        with self._element(body, path):
            computed = self._parse_transitions(body, checks, weights, path, name)
            if len(parsed) == len(body.get("checks") or ()):
                transitions = computed
        duration = None
        if "duration" in body:
            duration = number_field(body, "duration", path)
        elif route_duration is not None:
            duration = route_duration
        self._add_state(
            State(
                name=name,
                checks=checks,
                weights=weights,
                routing=routing,
                transitions=transitions,
                duration=duration,
            ),
            body,
        )
        self._note_checks(name, parsed)

    def _parse_transitions(
        self,
        body: dict[str, Any],
        checks: list[Check],
        weights: list[float],
        path: str,
        name: str,
    ) -> Transitions:
        explicit = body.get("transitions")
        has_next = "next" in body
        if explicit is not None and has_next:
            raise DslError("give either 'transitions' or 'next', not both", path)
        if explicit is not None:
            block_path = f"{path}.transitions"
            mapping = expect_map(explicit, block_path)
            reject_unknown_keys(mapping, {"thresholds", "targets"}, block_path)
            line = key_line(mapping, "thresholds")
            thresholds = _threshold_list(
                get_required(mapping, "thresholds", block_path),
                f"{block_path}.thresholds",
                line,
            )
            targets = [
                expect_str(item, f"{block_path}.targets[{i}]")
                for i, item in enumerate(
                    expect_list(
                        get_required(mapping, "targets", block_path),
                        f"{block_path}.targets",
                    )
                )
            ]
            try:
                return Transitions.build(thresholds, targets)
            except Exception as exc:
                raise DslError(
                    f"transitions of state {name!r}: {exc}", block_path, line, "BF105"
                ) from exc
        if not has_next:
            raise DslError("needs 'next' or a 'transitions' block", path)
        for check in checks:
            if isinstance(check, BasicCheck) and check.output.results != (0, 1):
                raise DslError(
                    f"check {check.name!r} uses a full-model outcome mapping; "
                    "give an explicit 'transitions' block instead of 'next'",
                    path,
                )
        next_state = str_field(body, "next", path)
        basic_weight = sum(
            weight
            for check, weight in zip(checks, weights)
            if isinstance(check, BasicCheck)
        )
        if basic_weight > 0:
            on_failure = str_field(body, "onFailure", path)
            # All basic checks passing scores exactly basic_weight; anything
            # less falls below the threshold and routes to onFailure.
            return Transitions.build([basic_weight - 0.5], [on_failure, next_state])
        if "onFailure" in body and not body.get("checks"):
            raise DslError("'onFailure' without checks has no effect", path)
        return Transitions.always(next_state)

    # -- routes -------------------------------------------------------------

    def _deployed(
        self, node: Any, path: str, service_name: str, version: str
    ) -> DeployedService | None:
        """The deployed service a route reaches, or None when the service's
        own deployment error already explains why it cannot."""
        deployed = self.deployment.services.get(service_name)
        if deployed is None:
            if self._broken is None or service_name in self._broken:
                return None
            known = sorted(self.deployment.services)
            message = f"deployment does not declare service {service_name!r}"
            message += f"; known: {known}"
            raise DslError(message, f"{path}.from", node_line(node), "BF202")
        if version not in deployed.versions:
            message = f"service {service_name!r} has no version {version!r}"
            raise DslError(message, f"{path}.to", node_line(node), "BF202")
        return deployed

    def _parse_routes(
        self, raw: Any, path: str, owner: str
    ) -> tuple[dict[str, RoutingConfig], float | None]:
        """Group route directives by service into RoutingConfigs.

        Returns the configs and the longest filter ``intervalTime`` (used
        as the phase duration when no checks pin it down).
        """
        if raw is None:
            return {}, None
        per_service: dict[str, dict[str, Any]] = {}
        intervals: list[float] = []
        for index, item in enumerate(expect_list(raw, path)):
            item_path = f"{path}[{index}]"
            with self._element(item, item_path):
                intervals.extend(self._parse_route(item, item_path, per_service))
        configs: dict[str, RoutingConfig] = {}
        for service_name, bucket in per_service.items():
            with self._element(None, path):
                configs[service_name] = self._routing_config(
                    service_name, bucket, path
                )
                span = (bucket["line"], None, None)
                self.spans[("route", owner, service_name)] = span
        return configs, max([0.0, *intervals]) if intervals else None

    def _parse_route(
        self, item: Any, item_path: str, per_service: dict[str, dict[str, Any]]
    ) -> list[float]:
        """Parse one route directive into its service's bucket; returns
        its filters' ``intervalTime`` values."""
        wrapper = expect_map(item, item_path)
        if set(wrapper) != {"route"}:
            raise DslError("expected a 'route' element", item_path)
        route_path = f"{item_path}.route"
        route = expect_map(wrapper["route"], route_path)
        reject_unknown_keys(route, _ROUTE_KEYS, route_path)
        service_name = str_field(route, "from", route_path)
        target_version = str_field(route, "to", route_path)
        deployed = self._deployed(route, route_path, service_name, target_version)
        filter_type = str_field(route, "filter_type", route_path, "cookie")
        try:
            filter_kind = FilterKind(filter_type)
        except ValueError:
            raise DslError(
                f"unknown filter_type {filter_type!r}; expected cookie or header",
                f"{route_path}.filter_type",
            ) from None
        header = str_field(route, "header", route_path, "X-Bifrost-Group")
        filters = expect_list(route.get("filters", []), f"{route_path}.filters")
        if not filters:
            raise DslError("route needs at least one filter", route_path)
        live: list[float] = []
        shadows: list[float] = []
        sticky = False
        intervals: list[float] = []
        for filter_index, filter_item in enumerate(filters):
            filter_path = f"{route_path}.filters[{filter_index}]"
            filter_wrapper = expect_map(filter_item, filter_path)
            if set(filter_wrapper) != {"traffic"}:
                raise DslError("expected a 'traffic' element", filter_path)
            traffic_path = f"{filter_path}.traffic"
            traffic = expect_map(filter_wrapper["traffic"], traffic_path)
            reject_unknown_keys(traffic, _TRAFFIC_KEYS, traffic_path)
            percentage = number_field(traffic, "percentage", traffic_path, 100.0)
            if not 0.0 <= percentage <= 100.0:
                raise DslError(
                    f"traffic percentage must be in [0, 100], got {percentage:g}",
                    f"{traffic_path}.percentage",
                    node_line(route),
                    "BF201",
                )
            shadow = bool_field(traffic, "shadow", traffic_path)
            sticky = bool_field(traffic, "sticky", traffic_path) or sticky
            if "intervalTime" in traffic:
                intervals.append(number_field(traffic, "intervalTime", traffic_path))
            (shadows if shadow else live).append(percentage)
        if deployed is None:
            return intervals
        bucket = per_service.setdefault(
            service_name,
            {"shares": {}, "shadows": [], "sticky": False, "line": node_line(route)},
        )
        bucket["filter"] = filter_kind
        bucket["header"] = header
        bucket["sticky"] = bucket["sticky"] or sticky
        bucket["shadows"].extend(
            ShadowRoute(deployed.stable, target_version, percentage)
            for percentage in shadows
        )
        shares = bucket["shares"]
        for percentage in live:
            shares[target_version] = shares.get(target_version, 0.0) + percentage
        return intervals

    def _routing_config(
        self, service_name: str, bucket: dict[str, Any], path: str
    ) -> RoutingConfig:
        deployed = self.deployment.services[service_name]
        shares: dict[str, float] = dict(bucket["shares"])
        routed = sum(shares.values())
        if routed > 100.0 + 1e-9:
            raise DslError(
                f"service {service_name!r} routes {routed}% of traffic "
                "(more than 100%)",
                path,
                bucket["line"],
                "BF201",
            )
        remainder = max(0.0, 100.0 - routed)
        stable_share = shares.pop(deployed.stable, 0.0) + remainder
        splits = []
        if stable_share > 0 or not shares:
            splits.append(TrafficSplit(deployed.stable, stable_share))
        splits.extend(TrafficSplit(version, share) for version, share in shares.items())
        return RoutingConfig(
            splits=splits,
            shadows=list(bucket["shadows"]),
            sticky=bucket["sticky"],
            filter_kind=bucket["filter"],
            header_name=bucket["header"],
        )

    # -- checks ---------------------------------------------------------------

    def _parse_checks(
        self, raw: Any, path: str
    ) -> list[tuple[Check, float, dict[str, Any]]]:
        """Each check that compiles, with its weight and metric mapping."""
        if raw is None:
            return []
        parsed = []
        for index, item in enumerate(expect_list(raw, path)):
            item_path = f"{path}[{index}]"
            # A model constructor's error names the metric, not the item.
            with self._element(item, f"{item_path}.metric"):
                parsed.append(self._parse_check(item, item_path))
        return parsed

    def _note_checks(
        self, owner: str | None, parsed: list[tuple[Check, float, dict[str, Any]]]
    ) -> None:
        for index, (_, _, metric) in enumerate(parsed):
            self.spans[("check", owner, index)] = (node_line(metric), None, None)
            if "validator" in metric:
                self.spans[("validator", owner, index)] = _key_span(metric, "validator")
            holders = [metric] if "query" in metric else [
                body for item in metric["providers"] for body in item.values()
            ]
            for position, holder in enumerate(holders):
                span = _key_span(holder, "query")
                self.spans[("query", owner, index, position)] = span

    def _parse_check(
        self, item: Any, item_path: str
    ) -> tuple[Check, float, dict[str, Any]]:
        wrapper = expect_map(item, item_path)
        if set(wrapper) != {"metric"}:
            raise DslError("expected a 'metric' element", item_path)
        metric_path = f"{item_path}.metric"
        metric = expect_map(wrapper["metric"], metric_path)
        reject_unknown_keys(metric, _METRIC_KEYS, metric_path)
        name = str_field(metric, "name", metric_path)
        interval = number_field(metric, "intervalTime", metric_path)
        repetitions = int_field(metric, "intervalLimit", metric_path)
        check_type = str_field(metric, "type", metric_path, "basic")
        policy_raw = optional_str_field(metric, "onProviderError", metric_path)
        if policy_raw is not None and check_type != "exception":
            raise DslError(
                "'onProviderError' applies only to exception checks",
                f"{metric_path}.onProviderError",
            )
        condition = self._parse_condition(metric, name, metric_path)
        timer = Timer(interval, repetitions)
        if check_type == "basic":
            output = self._parse_output_mapping(metric, name, repetitions, metric_path)
            check: Check = BasicCheck(name, condition, timer, output)
            weight = number_field(metric, "weight", metric_path, 1.0)
        elif check_type == "exception":
            fallback = str_field(metric, "fallback", metric_path)
            policy = (
                ProviderErrorPolicy.parse(policy_raw)
                if policy_raw is not None
                else ProviderErrorPolicy()
            )
            check = ExceptionCheck(
                name=name,
                condition=condition,
                timer=timer,
                fallback_state=fallback,
                on_provider_error=policy,
            )
            # An exception check's success count must not shift the
            # simplified boolean outcome scale.
            weight = number_field(metric, "weight", metric_path, 0.0)
        else:
            raise DslError(
                f"unknown check type {check_type!r}; expected basic or exception",
                f"{metric_path}.type",
            )
        return check, weight, metric

    def _parse_condition(
        self, metric: dict[str, Any], name: str, metric_path: str
    ) -> MetricCondition:
        """Either the flat ``query``/``provider`` form, or Listing 1's
        ``providers:`` list form with named retrievals.  The decision rule
        is a ``validator`` over one metric (``subject`` names it) or a
        ``compare`` expression between two named metrics ("sales_a >
        sales_b" — the A/B-test business comparison)."""
        has_validator = "validator" in metric
        has_compare = "compare" in metric
        if has_validator == has_compare:
            raise DslError(
                "give exactly one of 'validator' or 'compare'", metric_path
            )
        has_flat = "query" in metric
        has_list = "providers" in metric
        if has_flat == has_list:
            raise DslError(
                "give exactly one of 'query' or 'providers'", metric_path
            )
        if has_compare and has_flat:
            raise DslError(
                "'compare' needs the 'providers' list (two named metrics)",
                metric_path,
            )
        if has_flat:
            validator = str_field(metric, "validator", metric_path)
            query = str_field(metric, "query", metric_path)
            provider = str_field(metric, "provider", metric_path, "prometheus")
            return MetricCondition.simple(query, validator, provider, name)
        if "provider" in metric:
            raise DslError(
                "'provider' conflicts with the 'providers' list", metric_path
            )
        queries = []
        providers_raw = expect_list(metric["providers"], f"{metric_path}.providers")
        if not providers_raw:
            raise DslError("needs at least one provider", f"{metric_path}.providers")
        for index, item in enumerate(providers_raw):
            item_path = f"{metric_path}.providers[{index}]"
            wrapper = expect_map(item, item_path)
            if len(wrapper) != 1:
                raise DslError(
                    "each providers item must be a single "
                    "'<provider-name>:' mapping",
                    item_path,
                )
            provider_name, body = next(iter(wrapper.items()))
            body_map = expect_map(body, f"{item_path}.{provider_name}")
            reject_unknown_keys(
                body_map, {"name", "query"}, f"{item_path}.{provider_name}"
            )
            queries.append(
                MetricQuery(
                    name=str_field(body_map, "name", f"{item_path}.{provider_name}"),
                    query=str_field(body_map, "query", f"{item_path}.{provider_name}"),
                    provider=str(provider_name),
                )
            )
        if has_compare:
            expression = str_field(metric, "compare", metric_path)
            comparison = _parse_comparison(expression, f"{metric_path}.compare")
            return MetricCondition(queries=tuple(queries), comparison=comparison)
        validator = str_field(metric, "validator", metric_path)
        subject = optional_str_field(metric, "subject", metric_path)
        return MetricCondition(
            queries=tuple(queries),
            validator=Validator.parse(validator),
            subject=subject,
        )

    def _parse_output_mapping(
        self, metric: dict[str, Any], name: str, repetitions: int, metric_path: str
    ) -> OutputMapping:
        """Either the simplified single ``threshold`` (boolean outcome) or
        the full model's ``thresholds``/``outcomes`` range mapping."""
        has_full = "thresholds" in metric or "outcomes" in metric
        if has_full:
            if "threshold" in metric:
                raise DslError(
                    "'threshold' conflicts with 'thresholds'/'outcomes'",
                    metric_path,
                )
            if "thresholds" not in metric or "outcomes" not in metric:
                raise DslError(
                    "'thresholds' and 'outcomes' must be given together",
                    metric_path,
                )
            line = node_line(metric)
            thresholds = _threshold_list(
                metric["thresholds"], f"{metric_path}.thresholds", line
            )
            outcomes = [
                expect_int(item, f"{metric_path}.outcomes[{i}]")
                for i, item in enumerate(
                    expect_list(metric["outcomes"], f"{metric_path}.outcomes")
                )
            ]
            try:
                return OutputMapping.from_pairs(thresholds, outcomes)
            except Exception as exc:
                raise DslError(
                    f"output mapping of check {name!r}: {exc}",
                    metric_path,
                    line,
                    "BF105",
                ) from exc
        threshold = int_field(metric, "threshold", metric_path, repetitions)
        if not 1 <= threshold <= repetitions:
            raise DslError(
                f"threshold {threshold} outside [1, {repetitions}]",
                f"{metric_path}.threshold",
            )
        return OutputMapping.boolean(float(threshold))

    # -- rollout sugar -----------------------------------------------------------

    def _add_rollout(self, body: dict[str, Any], path: str) -> None:
        reject_unknown_keys(body, _ROLLOUT_KEYS, path)
        name = str_field(body, "name", path)
        service_name = str_field(body, "from", path)
        target_version = str_field(body, "to", path)
        deployed = self._deployed(body, path, service_name, target_version)
        start = number_field(body, "startPercentage", path, 5.0)
        step = number_field(body, "stepPercentage", path, 5.0)
        target = number_field(body, "targetPercentage", path, 100.0)
        interval = number_field(body, "intervalTime", path)
        next_state = str_field(body, "next", path)
        if step <= 0:
            raise DslError("stepPercentage must be positive", f"{path}.stepPercentage")
        if not 0 < start <= target <= 100.0:
            raise DslError(
                f"need 0 < startPercentage <= targetPercentage <= 100, "
                f"got {start}..{target}",
                path,
            )
        step_count = math.floor((target - start) / step + 1e-9) + 1
        percentages = [min(start + i * step, target) for i in range(step_count)]
        if percentages[-1] < target - 1e-9:
            percentages.append(target)
        names = [
            self._new_name(body, path, f"{name}-{percentage:g}")
            for percentage in percentages
        ]
        parsed = self._parse_checks(body.get("checks"), f"{path}.checks")
        basic_weight = sum(
            weight for check, weight, _ in parsed if isinstance(check, BasicCheck)
        )
        on_failure = None
        if any(isinstance(check, BasicCheck) for check, _, _ in parsed) or (
            len(parsed) < len(body.get("checks") or ()) and "onFailure" in body
        ):
            on_failure = str_field(body, "onFailure", path)
        edges = [
            Transitions.always(follower)
            if on_failure is None
            else Transitions.build([basic_weight - 0.5], [on_failure, follower])
            for follower in [*names[1:], next_state]
        ]
        self._aliases[name] = names[0]
        self._expansions[name] = names
        for state_name, percentage, transitions in zip(names, percentages, edges):
            checks = copy.deepcopy([check for check, _, _ in parsed])
            # Uniquify check names per step for readable event streams.
            for check in checks:
                check.name = f"{check.name}@{percentage:g}"
            routing = {}
            if deployed is not None:
                routing[service_name] = RoutingConfig(
                    splits=[
                        TrafficSplit(deployed.stable, 100.0 - percentage),
                        TrafficSplit(target_version, percentage),
                    ]
                    if percentage < 100.0
                    else [TrafficSplit(target_version, 100.0)]
                )
                self.spans[("route", state_name, service_name)] = _node_span(body)
            self._add_state(
                State(
                    name=state_name,
                    checks=checks,
                    weights=[weight for _, weight, _ in parsed],
                    routing=routing,
                    transitions=transitions,
                    duration=interval,
                ),
                body,
            )
            self._note_checks(state_name, parsed)

    # -- final states ---------------------------------------------------------------

    def _add_final(self, body: dict[str, Any], path: str) -> None:
        reject_unknown_keys(body, _FINAL_KEYS, path)
        name = self._new_name(body, path, str_field(body, "name", path))
        routing, _ = self._parse_routes(body.get("routes"), f"{path}.routes", name)
        self._add_state(
            State(
                name=name,
                routing=routing,
                final=True,
                rollback=bool_field(body, "rollback", path),
            ),
            body,
        )

    # -- chaos campaigns ----------------------------------------------------

    def _chaos(self, raw: Any):
        """Compile the ``chaos:`` section against the walked automaton."""
        from ..resilience.chaos import ChaosCampaign

        body = expect_map(raw, "chaos")
        reject_unknown_keys(body, _CHAOS_KEYS, "chaos")
        name = str_field(body, "name", "chaos", f"{self.strategy.name}-chaos")
        seed = int_field(body, "seed", "chaos", 0)
        specs = []
        faults_raw = body.get("faults")
        if faults_raw is not None:
            for index, item in enumerate(expect_list(faults_raw, "chaos.faults")):
                item_path = f"chaos.faults[{index}]"
                with self._element(item, item_path):
                    spec, fault = self._parse_fault(item, item_path)
                    self.spans[("fault", len(specs))] = _node_span(fault)
                    specs.append(spec)
        steady = self._parse_checks(body.get("steadyState"), "chaos.steadyState")
        self._note_checks(None, steady)
        return ChaosCampaign(
            name=name,
            specs=specs,
            steady_state=[check for check, _, _ in steady],
            steady_weights={check.name: weight for check, weight, _ in steady},
            seed=seed,
        )

    def _parse_fault(self, item: Any, item_path: str):
        from ..resilience.chaos import ChaosError, FaultSpec, parse_target

        mapping = expect_map(item, item_path)
        if set(mapping) != {"fault"}:
            raise DslError(
                f"a fault item must have exactly the key 'fault', "
                f"got {sorted(mapping)}",
                item_path,
            )
        path = f"{item_path}.fault"
        body = expect_map(mapping["fault"], path)
        reject_unknown_keys(body, _FAULT_KEYS, path)
        target = str_field(body, "target", path)
        try:
            parse_target(target)
        except ChaosError as exc:
            line = node_line(body)
            raise DslError(str(exc), f"{path}.target", line, "BF501") from None
        name = str_field(body, "name", path, target)
        during_raw = expect_list(get_required(body, "during", path), f"{path}.during")
        phases: list[str] = []
        for index, entry in enumerate(during_raw):
            phase = expect_str(entry, f"{path}.during[{index}]")
            # A rollout name covers every state of its expansion; a name
            # that is no phase at all is the campaign check's to reject.
            for resolved in self._expansions.get(phase, [phase]):
                if resolved not in phases:
                    phases.append(resolved)
        spec = FaultSpec(
            name=name,
            target=target,
            mode=str_field(body, "mode", path, "error"),
            phases=tuple(phases),
            rate=number_field(body, "rate", path, 1.0),
            latency=number_field(body, "latency", path, 0.0),
            message=str_field(body, "message", path, "chaos: injected fault"),
        )
        return spec, body
