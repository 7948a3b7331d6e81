"""Static verification of release strategies — legacy compatibility shim.

The analysis itself moved to :mod:`repro.lint`, a rule-based engine with
stable ``BFxxx`` codes, source-located diagnostics, configurable
severities, and a ``bifrost lint`` CLI.  This module keeps the seed's
API working on top of it:

* :func:`verify_strategy` runs the lint engine and reports only the five
  rules the old verifier had, as :class:`Finding` objects under their
  legacy rule names (``no-rollback``, ``possible-live-lock``,
  ``unroutable-version``, ``unmonitored-exposure``,
  ``sticky-discontinuity``);
* :func:`strategy_graph` still builds the networkx view of an automaton
  (the lint engine has its own dependency-free graph pass, but the
  networkx projection remains useful for analysis notebooks).

New code should call :func:`repro.lint.lint_strategy` (or ``bifrost
lint`` on documents) and get the full rule catalogue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import SimpleNamespace

from .automaton import Automaton
from .model import Strategy


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One verification result."""

    severity: Severity
    rule: str
    state: str | None
    message: str

    def __str__(self) -> str:
        location = f" [{self.state}]" if self.state else ""
        return f"{self.severity.value}{location} {self.rule}: {self.message}"


def strategy_graph(automaton: Automaton) -> "networkx.DiGraph":
    """The automaton as a directed graph (transitions + fallbacks)."""
    import networkx  # only this helper needs it: the engine must import without

    graph = networkx.DiGraph()
    for name, state in automaton.states.items():
        graph.add_node(name, final=state.final, rollback=state.rollback)
        if state.transitions is not None:
            for target in state.transitions.targets:
                graph.add_edge(name, target)
        for check in state.checks:
            fallback = getattr(check, "fallback_state", None)
            if fallback is not None:
                graph.add_edge(name, fallback, via_exception=True)
    return graph


def verify_strategy(strategy: Strategy | Automaton) -> list[Finding]:
    """Run the legacy rule subset; returns findings sorted by severity."""
    from ..lint import lint_strategy
    from ..lint.registry import LEGACY_RULES

    if isinstance(strategy, Strategy):
        automaton = strategy.automaton
        subject = strategy
    else:
        automaton = strategy
        # The lint model reads .services/.automaton; give a bare automaton
        # the same shape so graph rules run and service rules are no-ops.
        subject = SimpleNamespace(name="", services={}, automaton=strategy)
    assert automaton is not None
    automaton.validate()

    result = lint_strategy(subject)
    findings = [
        Finding(
            severity=Severity(diagnostic.severity.value),
            rule=LEGACY_RULES[diagnostic.code],
            state=diagnostic.state,
            message=diagnostic.message,
        )
        for diagnostic in result.diagnostics
        if diagnostic.code in LEGACY_RULES
    ]
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    findings.sort(key=lambda finding: (order[finding.severity], finding.state or ""))
    return findings
