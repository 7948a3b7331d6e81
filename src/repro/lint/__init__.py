"""Strategy static analysis (``bifrost lint``).

A rule-based engine over strategy documents: stable ``BFxxx`` codes,
severities, per-rule enable/disable and severity overrides (document
``lint:`` section or CLI flags), source-line spans resolved from the YAML
parser, and text / JSON / SARIF renderers.

Typical use::

    from repro.lint import lint_text, LintConfig

    result = lint_text(open("strategy.yaml").read(), file="strategy.yaml")
    for diagnostic in result.diagnostics:
        print(diagnostic)
    raise SystemExit(result.exit_code(strict=True))

The rules judge the :class:`~repro.core.model.Strategy` the DSL compiler
builds from the document (the partial one when it does not compile);
:func:`lint_strategy` runs them over an already built strategy.
"""

from .diagnostics import (
    Diagnostic,
    LintConfig,
    LintConfigError,
    Severity,
    SourceSpan,
)
from .baseline import (
    BaselineError,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from .engine import (
    LintResult,
    lint_document,
    lint_path,
    lint_strategy,
    lint_text,
    scan_suppressions,
)
from .fixes import FixEdit, FixResult, fix_path, fix_text
from .model import LintModel
from .registry import RULES, Rule
from .render import render_github, render_json, render_sarif, render_text

__all__ = [
    "BaselineError",
    "Diagnostic",
    "FixEdit",
    "FixResult",
    "LintConfig",
    "LintConfigError",
    "LintModel",
    "LintResult",
    "RULES",
    "Rule",
    "Severity",
    "SourceSpan",
    "apply_baseline",
    "fingerprint",
    "fix_path",
    "fix_text",
    "lint_document",
    "lint_path",
    "lint_strategy",
    "lint_text",
    "load_baseline",
    "render_github",
    "render_json",
    "render_sarif",
    "render_text",
    "scan_suppressions",
    "write_baseline",
]
