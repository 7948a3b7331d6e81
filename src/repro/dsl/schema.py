"""Typed access to parsed DSL documents.

The YAML parser produces plain dicts/lists/scalars; these helpers convert
them into validated values with precise error paths.  Every accessor takes
the *path* of the node it inspects so errors read like
``strategy.phases[0].metric.intervalTime: expected a number, got 'fast'``.

When the document came from text, the parser hands back
:class:`~repro.dsl.yaml_lite.LocatedMap` / ``LocatedList`` nodes; the
helpers thread the recorded source lines into every :class:`DslError`
they raise, so errors (and lint diagnostics built on the same machinery)
can point at the offending YAML line.
"""

from __future__ import annotations

from typing import Any

from .errors import DslError
from .yaml_lite import key_line, node_line


def expect_map(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise DslError(
            f"expected a mapping, got {type(value).__name__}", path, node_line(value)
        )
    return value


def expect_list(value: Any, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise DslError(
            f"expected a list, got {type(value).__name__}", path, node_line(value)
        )
    return value


def expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise DslError(f"expected a string, got {value!r}", path, node_line(value))
    return value


def expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DslError(f"expected a number, got {value!r}", path, node_line(value))
    return float(value)


def expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DslError(f"expected an integer, got {value!r}", path, node_line(value))
    return value


def get_required(mapping: dict[str, Any], key: str, path: str) -> Any:
    if key not in mapping:
        raise DslError(f"missing required key {key!r}", path, node_line(mapping))
    return mapping[key]


def reject_unknown_keys(
    mapping: dict[str, Any], allowed: set[str], path: str
) -> None:
    """Catch typos early: unknown keys are errors, not silent no-ops."""
    unknown = set(mapping) - allowed
    if unknown:
        first = sorted(unknown)[0]
        raise DslError(
            f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}",
            path,
            key_line(mapping, first),
        )


def str_field(mapping: dict[str, Any], key: str, path: str, default: str | None = None) -> str:
    if key not in mapping:
        if default is None:
            raise DslError(f"missing required key {key!r}", path, node_line(mapping))
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise DslError(
            f"expected a string, got {value!r}", f"{path}.{key}", key_line(mapping, key)
        )
    return value


def optional_str_field(mapping: dict[str, Any], key: str, path: str) -> str | None:
    """A string field that may be absent (``None``), unlike ``str_field``
    whose ``None`` default means *required*."""
    if key not in mapping:
        return None
    return str_field(mapping, key, path)


def number_field(
    mapping: dict[str, Any], key: str, path: str, default: float | None = None
) -> float:
    if key not in mapping:
        if default is None:
            raise DslError(f"missing required key {key!r}", path, node_line(mapping))
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DslError(
            f"expected a number, got {value!r}", f"{path}.{key}", key_line(mapping, key)
        )
    return float(value)


def int_field(
    mapping: dict[str, Any], key: str, path: str, default: int | None = None
) -> int:
    if key not in mapping:
        if default is None:
            raise DslError(f"missing required key {key!r}", path, node_line(mapping))
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DslError(
            f"expected an integer, got {value!r}",
            f"{path}.{key}",
            key_line(mapping, key),
        )
    return value


def bool_field(mapping: dict[str, Any], key: str, path: str, default: bool = False) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise DslError(
            f"expected true/false, got {value!r}",
            f"{path}.{key}",
            key_line(mapping, key),
        )
    return value
