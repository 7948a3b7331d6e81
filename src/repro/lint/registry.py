"""The lint rule registry.

Every rule is a function over the :class:`~repro.lint.model.LintModel`
(the compiled strategy and its context) registered under a stable code.
Codes are grouped by layer:

* ``BF0xx`` — the document itself (parse / compile failures),
* ``BF1xx`` — automaton structure,
* ``BF2xx`` — routing,
* ``BF3xx`` — checks and metric queries,
* ``BF4xx`` — deployment and resilience.

A rule's ``blocking`` flag marks findings that make enactment unsafe or
impossible; the engine refuses to enact strategies with blocking ERROR
diagnostics unless explicitly overridden (``allow_findings=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .diagnostics import Diagnostic, Severity, SourceSpan


@dataclass(frozen=True)
class Rule:
    """Metadata of one lint rule."""

    code: str
    name: str
    severity: Severity
    summary: str
    #: Blocking rules gate :meth:`Engine.enact`; advisory errors do not.
    blocking: bool = False

    def diagnostic(
        self,
        message: str,
        span: SourceSpan | None = None,
        state: str | None = None,
        related: Iterable[tuple[str, SourceSpan]] = (),
        fix: str | None = None,
        severity: Severity | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            name=self.name,
            severity=severity or self.severity,
            message=message,
            span=span,
            state=state,
            related=tuple(related),
            fix=fix,
        )


#: A rule implementation yields diagnostics for one model.
RuleCheck = Callable[..., Iterator[Diagnostic]]

RULES: dict[str, Rule] = {}
CHECKS: list[tuple[Rule, RuleCheck]] = []


def rule(
    code: str,
    name: str,
    severity: Severity,
    summary: str,
    blocking: bool = False,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule implementation under *code*."""

    def register(check: RuleCheck) -> RuleCheck:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        entry = Rule(code, name, severity, summary, blocking)
        RULES[code] = entry
        CHECKS.append((entry, check))
        check.rule = entry  # rules reference their own metadata via fn.rule
        return check

    return register


def declare(code: str, name: str, severity: Severity, summary: str, blocking: bool = False) -> Rule:
    """Register rule metadata without an engine-run check function.

    Used by the BF0xx document rules, which the engine raises directly
    from parse/compile failures rather than from a model pass.
    """
    if code in RULES:
        raise ValueError(f"duplicate rule code {code}")
    entry = Rule(code, name, severity, summary, blocking)
    RULES[code] = entry
    return entry


__all__ = ["CHECKS", "RULES", "Rule", "declare", "rule"]
