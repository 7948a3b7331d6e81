"""The lint engine: entry points, rule running, result aggregation.

Four entry points, layered so each delegates to the next:

* :func:`lint_path` — read a file and lint its text;
* :func:`lint_text` — parse DSL text (a parse failure becomes BF001);
* :func:`lint_document` — lint a parsed document: merge its ``lint:``
  section with the caller's config, compile it once, report each element
  the compiler rejected under its code, and run the rules over the model
  it built (the partial one when the document does not compile);
* :func:`lint_strategy` — lint an in-memory strategy (the enactment gate).

A document that lints clean compiles: a compile failure left without any
error beside it (the whole-model check, a suppressed error) is BF002.

The engine never raises on strategy content: parser, compiler, and rule
crashes all degrade into diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..core.model import Strategy
from ..core.routing import RoutingConfig
from ..dsl.compiler import compile_document
from ..dsl.errors import DslError
from ..dsl.yaml_lite import YamlError, dumps, key_line, loads
from .diagnostics import (
    Diagnostic,
    LintConfig,
    LintConfigError,
    Severity,
    SourceSpan,
    code_matches,
)
from .model import LintModel
from .registry import CHECKS, RULES
from .rules import BAD_LINT_CONFIG, COMPILE_ERROR, PARSE_ERROR  # registers all rules
from . import semantic as _semantic  # noqa: F401 — registers the BF6xx rules


@dataclass
class LintResult:
    """Every diagnostic of one lint run, ordered by source line."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    file: str | None = None
    #: Findings silenced by inline ``# bifrost: ignore[BFxxx]`` comments
    #: (or a baseline file) — counted so "clean" is distinguishable from
    #: "clean because everything was suppressed".
    suppressed: int = 0

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def blocking(self) -> list[Diagnostic]:
        """ERROR diagnostics of blocking rules — these gate enactment."""
        return [
            d
            for d in self.errors
            if d.code in RULES and RULES[d.code].blocking
        ]

    def exit_code(self, strict: bool = False) -> int:
        """CLI convention: 0 clean, 3 errors, 4 warnings under --strict."""
        if self.errors:
            return 3
        if strict and self.warnings:
            return 4
        return 0

    def summary(self) -> dict[str, int]:
        return {
            severity.value: self.count(severity)
            for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)
        }


def lint_path(path: str, config: LintConfig | None = None) -> LintResult:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return LintResult(
            [
                PARSE_ERROR.diagnostic(
                    f"cannot read {path}: {exc}",
                    span=SourceSpan(file=str(path)),
                )
            ],
            file=str(path),
        )
    return lint_text(text, file=str(path), config=config)


def lint_text(
    text: str,
    file: str | None = None,
    config: LintConfig | None = None,
) -> LintResult:
    try:
        document = loads(text)
    except YamlError as exc:
        span = SourceSpan(line=getattr(exc, "line", None), file=file)
        return LintResult(
            [PARSE_ERROR.diagnostic(f"document does not parse: {exc}", span=span)],
            file=file,
        )
    # The parser strips comments, so inline suppressions are scanned from
    # the raw text and threaded through as a line -> codes map.
    return lint_document(
        document,
        file=file,
        config=config,
        suppressions=scan_suppressions(text),
    )


def lint_document(
    document: Any,
    file: str | None = None,
    config: LintConfig | None = None,
    suppressions: Mapping[int, frozenset[str]] | None = None,
) -> LintResult:
    diagnostics: list[Diagnostic] = []
    suppressed = 0

    effective = LintConfig()
    if isinstance(document, dict):
        try:
            effective = LintConfig.from_document(document.get("lint"))
        except LintConfigError as exc:
            diagnostics.append(
                BAD_LINT_CONFIG.diagnostic(
                    str(exc),
                    span=SourceSpan(line=key_line(document, "lint"), file=file),
                )
            )
    if config is not None:
        effective = effective.merged(config)

    if isinstance(document, str):
        # compile_document reads a string as DSL text; this one is parsed
        # already, a scalar, so it goes back as the text that parses to it.
        document = dumps(document)
    try:
        compiled, errors = compile_document(document), []
    except DslError as exc:
        compiled, errors = exc.partial, exc.errors
    model = LintModel.from_strategy(
        compiled.strategy,
        campaign=compiled.chaos,
        deployment=compiled.deployment,
        spans=compiled.spans,
        file=file,
    )
    # Each element the compiler rejected is one finding under its own code,
    # and the rules say nothing more at its line.  The whole-model check (no
    # document path) runs only after a clean walk, and the BF1xx/BF5xx rules
    # report what it rejects with better anchors.
    walked = [error for error in errors if error.path]
    rejected = {error.line for error in walked} - {None}
    skip = _ABSENCE_RULES if walked else ()
    diagnostics.extend(
        diagnostic
        for diagnostic in _run_rules(model, effective, skip=skip)
        if diagnostic.span is None or diagnostic.span.line not in rejected
    )
    for error in walked:
        if effective.enabled(error.code):
            diagnostics.append(
                _configured(
                    RULES[error.code].diagnostic(
                        str(error), span=SourceSpan(line=error.line, file=file)
                    ),
                    effective,
                )
            )

    # Inline suppressions apply before the compile decision below: when
    # every error is deliberately silenced, the document still has to
    # compile for the run to come back clean.
    if suppressions:
        diagnostics, dropped = _apply_suppressions(diagnostics, suppressions)
        suppressed += dropped

    if (
        errors
        and effective.enabled(COMPILE_ERROR.code)
        and not any(d.severity is Severity.ERROR for d in diagnostics)
    ):
        diagnostics.append(
            COMPILE_ERROR.diagnostic(
                f"document does not compile: {errors[0]}",
                span=SourceSpan(line=errors[0].line, file=file),
            )
        )

    return _finish(diagnostics, file, suppressed=suppressed)


def lint_strategy(
    strategy: Strategy,
    safe_routing: dict[str, RoutingConfig] | None = None,
    config: LintConfig | None = None,
    campaign=None,
) -> LintResult:
    model = LintModel.from_strategy(
        strategy, safe_routing=safe_routing, campaign=campaign
    )
    diagnostics = _run_rules(model, config or LintConfig())
    return _finish(diagnostics, None)


# -- inline suppressions ----------------------------------------------------

#: ``# bifrost: ignore[BF105]`` / ``# bifrost: ignore[BF1, BF605]`` —
#: codes may be prefixes, exactly like ``lint.ignore``.
_SUPPRESS_RE = re.compile(r"#\s*bifrost:\s*ignore\[([^\]]*)\]")


def scan_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map each source line (1-based) to the codes suppressed on it.

    A trailing comment suppresses findings anchored to its own line; a
    standalone comment line suppresses findings on the next non-blank,
    non-comment line (so a suppression can sit above the construct it
    silences).
    """
    suppressions: dict[int, frozenset[str]] = {}
    pending: set[str] = set()
    for number, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        match = _SUPPRESS_RE.search(line)
        codes = (
            {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
            if match
            else set()
        )
        if stripped.startswith("#"):
            pending |= codes
            continue
        if not stripped:
            continue  # blank lines don't consume a standalone suppression
        applied = codes | pending
        pending = set()
        if applied:
            suppressions[number] = frozenset(applied)
    return suppressions


def _apply_suppressions(
    diagnostics: list[Diagnostic],
    suppressions: Mapping[int, frozenset[str]],
) -> tuple[list[Diagnostic], int]:
    kept: list[Diagnostic] = []
    dropped = 0
    for diagnostic in diagnostics:
        line = diagnostic.span.line if diagnostic.span else None
        if (
            line is not None
            and line in suppressions
            and code_matches(diagnostic.code, suppressions[line])
        ):
            dropped += 1
            continue
        kept.append(diagnostic)
    return kept, dropped


# -- internals --------------------------------------------------------------


#: Rules that conclude from an absence: no checks, never routed, no
#: steady-state hypothesis, no rollback in reach, an exposure jump out of
#: an unchecked phase.  On a model the compiler left elements out of they
#: stay silent — the left-out element may be exactly what they miss.
_ABSENCE_RULES = frozenset({"BF104", "BF203", "BF305", "BF503", "BF603"})


def _run_rules(
    model: LintModel, config: LintConfig, skip: frozenset[str] | tuple = ()
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for entry, check in sorted(CHECKS, key=lambda pair: pair[0].code):
        if entry.code in skip or not config.enabled(entry.code):
            continue
        try:
            found = list(check(model, config))
        except Exception as exc:  # a rule bug must not take down the run
            diagnostics.append(
                entry.diagnostic(
                    f"internal error while running {entry.code}: {exc!r}",
                    severity=Severity.WARNING,
                )
            )
            continue
        diagnostics.extend(_configured(diagnostic, config) for diagnostic in found)
    return diagnostics


def _configured(diagnostic: Diagnostic, config: LintConfig) -> Diagnostic:
    """*diagnostic* with the configured severity override of its code."""
    override = config.severities.get(diagnostic.code)
    if override is not None and diagnostic.severity is not override:
        return replace(diagnostic, severity=override)
    return diagnostic


def _finish(
    diagnostics: list[Diagnostic], file: str | None, suppressed: int = 0
) -> LintResult:
    unique: dict[tuple, Diagnostic] = {}
    for diagnostic in diagnostics:
        line = diagnostic.span.line if diagnostic.span else None
        # The states a rollout expands into share its line: one finding
        # about the phase is reported once, not once per step.
        state = diagnostic.state if line is None else None
        key = (diagnostic.code, state, diagnostic.message, line)
        unique.setdefault(key, diagnostic)
    ordered = sorted(
        unique.values(),
        key=lambda d: (
            d.span.line if d.span and d.span.line is not None else 10**9,
            d.code,
            d.state or "",
            d.message,
        ),
    )
    return LintResult(ordered, file=file, suppressed=suppressed)


__all__ = [
    "LintResult",
    "lint_document",
    "lint_path",
    "lint_strategy",
    "lint_text",
    "scan_suppressions",
]
