"""DSL error type with document-path context."""

from __future__ import annotations

from typing import Any


class DslError(Exception):
    """A strategy document is invalid.

    Carries the path into the document (``strategy.phases[2].route``) so a
    release engineer can find the offending element without reading a
    stack trace, and — when the document was parsed from text — the
    1-based source line of the offending node.

    ``code`` is the lint rule that reports it (``BF002`` unless a more
    specific rule owns the defect).  :func:`~repro.dsl.compile_document`
    raises the document's first error with every error in ``errors`` and
    the model compiled without the failed elements in ``partial``.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        line: int | None = None,
        code: str = "BF002",
    ):
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line
        self.code = code
        self.errors: list[DslError] = [self]
        self.partial: Any = None

    def __str__(self) -> str:
        prefix = f"{self.path}: " if self.path else ""
        suffix = f" (line {self.line})" if self.line is not None else ""
        return f"{prefix}{self.message}{suffix}"
