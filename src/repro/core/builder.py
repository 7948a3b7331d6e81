"""Fluent construction of strategies.

The DSL compiler and the examples both need to assemble strategies; doing
it through raw dataclasses is verbose and easy to get wrong (weights
aligned with checks, transitions matching thresholds).  The builder keeps
those invariants while staying a thin layer over the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Automaton, State, Transitions
from .checks import Check
from .model import ModelError, Service, ServiceVersion, Strategy
from .routing import RoutingConfig


@dataclass
class StateBuilder:
    """Accumulates one state's pieces; chainable."""

    name: str
    _parent: "StrategyBuilder"
    _checks: list[Check] = field(default_factory=list)
    _weights: list[float] = field(default_factory=list)
    _routing: dict[str, RoutingConfig] = field(default_factory=dict)
    _transitions: Transitions | None = None
    _duration: float | None = None
    _final: bool = False
    _rollback: bool = False

    def check(self, check: Check, weight: float = 1.0) -> "StateBuilder":
        self._checks.append(check)
        self._weights.append(weight)
        return self

    def route(self, service: str, config: RoutingConfig) -> "StateBuilder":
        if service in self._routing:
            raise ModelError(
                f"state {self.name!r} already routes service {service!r}"
            )
        self._routing[service] = config
        return self

    def transitions(self, thresholds: list[float], targets: list[str]) -> "StateBuilder":
        self._transitions = Transitions.build(thresholds, targets)
        return self

    def goto(self, target: str) -> "StateBuilder":
        """Unconditional transition once the state's dwell time elapses."""
        self._transitions = Transitions.always(target)
        return self

    def dwell(self, seconds: float) -> "StateBuilder":
        self._duration = seconds
        return self

    def final(self, rollback: bool = False) -> "StateBuilder":
        self._final = True
        self._rollback = rollback
        return self

    def _build(self) -> State:
        return State(
            name=self.name,
            checks=list(self._checks),
            weights=list(self._weights),
            routing=dict(self._routing),
            transitions=self._transitions,
            duration=self._duration,
            final=self._final,
            rollback=self._rollback,
        )


class StrategyBuilder:
    """Builds a validated :class:`~repro.core.model.Strategy`."""

    def __init__(self, name: str):
        self.name = name
        self._services: dict[str, Service] = {}
        self._states: list[StateBuilder] = []

    def service(self, name: str, versions: dict[str, str]) -> "StrategyBuilder":
        """Declare a service and its version endpoints (name → host:port)."""
        service = Service(name)
        for version_name, endpoint in versions.items():
            service.add_version(ServiceVersion(version_name, endpoint))
        if name in self._services:
            raise ModelError(f"service {name!r} declared twice")
        self._services[name] = service
        return self

    def state(self, name: str) -> StateBuilder:
        """Open a new state; the first state becomes the start state."""
        builder = StateBuilder(name, self)
        self._states.append(builder)
        return builder

    def build(self) -> Strategy:
        """Assemble and validate; raises :class:`ModelError` on problems."""
        strategy = Strategy(self.name)
        for service in self._services.values():
            strategy.add_service(service)
        automaton = Automaton()
        for state_builder in self._states:
            automaton.add_state(state_builder._build())
        strategy.automaton = automaton
        strategy.validate()
        return strategy
