"""What the lint rules judge: the compiled strategy and its context.

Rules read the :class:`~repro.core.model.Strategy` itself — its
automaton's states, their checks and routing configurations — never a
copy of it.  :class:`LintModel` carries it together with what a document
adds: the chaos campaign, the deployment, the compiler's span map (so
diagnostics carry :class:`~repro.lint.diagnostics.SourceSpan` anchors)
and, for the engine's enactment gate, the safe-routing overrides.  An
in-memory strategy has no spans; its diagnostics fall back to state
names.  ``bifrost lint`` hands over the partial model of a document that
does not compile, built from the same core classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

from ..core.automaton import State
from ..core.model import Strategy
from ..core.routing import RoutingConfig
from .diagnostics import SourceSpan

if TYPE_CHECKING:
    from ..dsl.deployment import Deployment
    from ..resilience.chaos import ChaosCampaign


@dataclass
class LintModel:
    """A strategy under lint, with the facts its rules share."""

    strategy: Strategy
    #: The chaos campaign, when one is declared or attached.
    campaign: ChaosCampaign | None = None
    #: The document's deployment part.
    deployment: Deployment | None = None
    #: Engine-side safe-routing overrides to validate (BF401).
    safe_routing: dict[str, RoutingConfig] | None = None
    #: The compiler's span map (:attr:`~repro.dsl.CompiledStrategy.spans`).
    spans: dict[tuple, tuple] = field(default_factory=dict)
    file: str | None = None

    def __post_init__(self) -> None:
        automaton = self.strategy.automaton
        self.states: dict[str, State] = automaton.states if automaton else {}
        start = automaton.start if automaton else None
        self.start: str | None = start or next(iter(self.states), None)
        campaign = self.campaign
        self.faults = campaign.specs if campaign is not None else []
        self.steady = campaign.steady_state if campaign is not None else []

    def span(self, kind: str, *key: Any) -> SourceSpan | None:
        """Where the document declares ``(kind, *key)``; see
        :class:`~repro.dsl.CompiledStrategy` for the keys."""
        found = self.spans.get((kind, *key))
        if found is None:
            return None if self.file is None else SourceSpan(file=self.file)
        line, column, end_column = found
        return SourceSpan(line, self.file, column, end_column)

    def element_span(
        self, kind: str, state: str | None, *key: Any
    ) -> SourceSpan | None:
        """The span of *state*'s element ``(kind, state, *key)``, else the
        state's own."""
        return self.span(kind, state, *key) or self.span("state", state)

    # -- graph helpers ------------------------------------------------------

    @cached_property
    def _edges(self) -> dict[str, list[str]]:
        return {
            name: [target for target in state.successors if target in self.states]
            for name, state in self.states.items()
        }

    def successors(self, name: str) -> list[str]:
        """Outgoing edges of a state, restricted to known states."""
        return self._edges[name]

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

    # -- exposure -----------------------------------------------------------

    def stable_version(self, service: str, routing: RoutingConfig) -> str | None:
        """The version exposure is measured against.

        The deployment's stable version when it is known, else the
        first-split convention the legacy verifier used.
        """
        if self.deployment is not None and service in self.deployment.services:
            return self.deployment.services[service].stable
        if routing.splits:
            return routing.splits[0].version
        return None

    def exposed(self, service: str, routing: RoutingConfig) -> float:
        """Percent of *service*'s live traffic routed to non-stable versions."""
        stable = self.stable_version(service, routing)
        return sum(
            split.percentage
            for split in routing.splits
            if split.version != stable and split.percentage > 0
        )

    def exposure(self, state: State) -> float:
        """Percent of live traffic the state routes to non-stable versions,
        maximized over services."""
        worst = 0.0
        for service, routing in state.routing.items():
            worst = max(worst, self.exposed(service, routing))
        return worst

    @cached_property
    def condition_analyses(self) -> list[tuple]:
        """Every provable check condition, analysed once per model.

        ``(state, index, noun, check, query, interval)`` rows from
        :func:`repro.lint.semantic.analyze_conditions`; BF601 and BF602
        both read them.
        """
        from .semantic import analyze_conditions

        return analyze_conditions(self)


__all__ = ["LintModel"]
