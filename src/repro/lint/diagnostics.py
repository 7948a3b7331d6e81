"""The diagnostics framework: severities, source spans, findings, config.

A :class:`Diagnostic` is one finding of the strategy lint engine: a stable
rule code (``BF104``), a human-readable rule name (``no-rollback``), a
severity, a message, and — when the strategy came from a YAML document —
a :class:`SourceSpan` pointing at the offending line.  Diagnostics are
plain data; rendering (text / JSON / SARIF) lives in
:mod:`repro.lint.render`.

:class:`LintConfig` carries per-run rule selection and severity overrides,
merged from the document's ``lint:`` section and CLI ``--select`` /
``--ignore`` flags (CLI wins).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any


class Severity(enum.Enum):
    """Diagnostic severity, ordered ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; expected error, warning, or info"
            ) from None


@dataclass(frozen=True)
class SourceSpan:
    """Where in a source document a diagnostic points.

    ``line`` and ``column`` are 1-based; ``file`` is the document path
    when known.  The YAML-subset parser records the start position of
    every mapping key, so key-anchored spans also carry ``column`` and
    ``end_column`` (exclusive of nothing — SARIF-style, pointing one past
    the last character of the key token); spans resolved from coarser
    nodes stay line-granular with ``column=None``.
    """

    line: int | None = None
    file: str | None = None
    column: int | None = None
    end_column: int | None = None

    def __str__(self) -> str:
        file = self.file or "<strategy>"
        return f"{file}:{self.line}" if self.line is not None else file


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the lint engine."""

    code: str  # stable rule code, e.g. "BF104"
    name: str  # rule slug, e.g. "no-rollback"
    severity: Severity
    message: str
    span: SourceSpan | None = None
    #: The automaton state the finding concerns, when the diagnostic is
    #: about one state rather than the whole strategy.
    state: str | None = None
    #: Additional locations that explain the finding (e.g. the conflicting
    #: sibling range of an overlap), as (message, span) pairs.
    related: tuple[tuple[str, SourceSpan], ...] = ()
    #: Optional one-line suggestion for fixing the finding.
    fix: str | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            payload["file"] = self.span.file
            payload["line"] = self.span.line
            if self.span.column is not None:
                payload["column"] = self.span.column
            if self.span.end_column is not None:
                payload["endColumn"] = self.span.end_column
        if self.state is not None:
            payload["state"] = self.state
        if self.related:
            payload["related"] = [
                {"message": message, "file": span.file, "line": span.line}
                for message, span in self.related
            ]
        if self.fix is not None:
            payload["fix"] = self.fix
        return payload

    def __str__(self) -> str:
        location = f"{self.span}: " if self.span and self.span.line else ""
        state = f" [state {self.state!r}]" if self.state else ""
        return (
            f"{location}{self.severity.value} {self.code} ({self.name})"
            f"{state}: {self.message}"
        )


class LintConfigError(Exception):
    """A ``lint:`` section or CLI selection is malformed."""


#: ``lint.options`` keys → :class:`LintConfig` field names.
_OPTION_KEYS = {
    "maxUnguardedExposure": "max_unguarded_exposure",
    "maxExposureJump": "max_exposure_jump",
    "maxShadowFanout": "max_shadow_fanout",
}

#: Field defaults, used by :meth:`LintConfig.merged` to tell "explicitly
#: configured" apart from "left at the default".
_OPTION_DEFAULTS = {
    "max_unguarded_exposure": 50.0,
    "max_exposure_jump": 50.0,
    "max_shadow_fanout": 100.0,
}


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection, severity overrides, and rule options."""

    #: When non-empty, only these rule codes run.
    select: frozenset[str] = frozenset()
    #: These rule codes never report (applied after ``select``).
    ignore: frozenset[str] = frozenset()
    #: Per-rule severity overrides, code → severity.
    severities: dict[str, Severity] = field(default_factory=dict)
    #: BF304: exposure percentage above which an unguarded exception check
    #: (default ``onProviderError: trigger``) is reported.
    max_unguarded_exposure: float = 50.0
    #: BF603: largest per-service exposure increase (in percentage points)
    #: a single transition may introduce without the preceding phase
    #: having run any checks.
    max_exposure_jump: float = 50.0
    #: BF604: largest total shadow percentage per (state, service) before
    #: the fan-out counts as amplification.
    max_shadow_fanout: float = 100.0

    def enabled(self, code: str) -> bool:
        if self.select and not code_matches(code, self.select):
            return False
        return not code_matches(code, self.ignore)

    def merged(self, other: "LintConfig") -> "LintConfig":
        """Overlay *other* (higher precedence, e.g. CLI flags) on self."""

        def pick(name: str) -> float:
            value = getattr(other, name)
            default = _OPTION_DEFAULTS[name]
            return value if value != default else getattr(self, name)

        return LintConfig(
            select=other.select or self.select,
            ignore=self.ignore | other.ignore,
            severities={**self.severities, **other.severities},
            max_unguarded_exposure=pick("max_unguarded_exposure"),
            max_exposure_jump=pick("max_exposure_jump"),
            max_shadow_fanout=pick("max_shadow_fanout"),
        )

    @classmethod
    def from_document(cls, section: Any) -> "LintConfig":
        """Parse the document's ``lint:`` section.

        ::

            lint:
              ignore: [BF204]
              select: [BF1, BF301]        # prefixes allowed
              severity:
                BF305: error
              options:
                maxUnguardedExposure: 25
                maxExposureJump: 30       # BF603 (percentage points)
                maxShadowFanout: 150      # BF604 (percent)
        """
        if section is None:
            return cls()
        if not isinstance(section, dict):
            raise LintConfigError(
                f"lint: expected a mapping, got {type(section).__name__}"
            )
        unknown = set(section) - {"select", "ignore", "severity", "options"}
        if unknown:
            raise LintConfigError(
                f"lint: unknown keys {sorted(unknown)}; "
                "allowed: ignore, options, select, severity"
            )
        select = _code_list(section.get("select"), "lint.select")
        ignore = _code_list(section.get("ignore"), "lint.ignore")
        severities: dict[str, Severity] = {}
        severity_raw = section.get("severity")
        if severity_raw is not None:
            if not isinstance(severity_raw, dict):
                raise LintConfigError("lint.severity: expected a mapping")
            for code, value in severity_raw.items():
                try:
                    severities[str(code).upper()] = Severity.parse(str(value))
                except ValueError as exc:
                    raise LintConfigError(f"lint.severity.{code}: {exc}") from None
        numbers = {name: _OPTION_DEFAULTS[name] for name in _OPTION_KEYS.values()}
        options = section.get("options")
        if options is not None:
            if not isinstance(options, dict):
                raise LintConfigError("lint.options: expected a mapping")
            unknown = set(options) - set(_OPTION_KEYS)
            if unknown:
                raise LintConfigError(
                    f"lint.options: unknown keys {sorted(unknown)}"
                )
            for key, field_name in _OPTION_KEYS.items():
                if key not in options:
                    continue
                value = options[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise LintConfigError(
                        f"lint.options.{key}: expected a number"
                    )
                numbers[field_name] = float(value)
        return cls(
            select=select,
            ignore=ignore,
            severities=severities,
            **numbers,
        )

    @classmethod
    def from_flags(
        cls,
        select: list[str] | None = None,
        ignore: list[str] | None = None,
    ) -> "LintConfig":
        """Build a config from CLI ``--select`` / ``--ignore`` values.

        Values may be comma-separated and may be code prefixes (``BF3``
        selects the whole BF3xx group).
        """
        return cls(
            select=frozenset(_split_flags(select)),
            ignore=frozenset(_split_flags(ignore)),
        )


def _split_flags(values: list[str] | None) -> list[str]:
    codes: list[str] = []
    for value in values or []:
        codes.extend(part.strip().upper() for part in value.split(",") if part.strip())
    return codes


def _code_list(raw: Any, path: str) -> frozenset[str]:
    if raw is None:
        return frozenset()
    if not isinstance(raw, list):
        raise LintConfigError(f"{path}: expected a list of rule codes")
    codes = []
    for item in raw:
        if not isinstance(item, str):
            raise LintConfigError(f"{path}: expected rule-code strings, got {item!r}")
        codes.append(item.upper())
    return frozenset(codes)


def code_matches(code: str, patterns: frozenset[str]) -> bool:
    """True when *code* equals any pattern or starts with a prefix pattern."""
    return any(code == p or code.startswith(p) for p in patterns)


__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintConfigError",
    "Severity",
    "SourceSpan",
    "code_matches",
    "replace",
]
