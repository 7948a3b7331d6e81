"""The autofix engine (``bifrost lint --fix``).

Four text-level fixers, each keyed to one blocking rule:

=====  =======================  ==============================================
BF105  bad-thresholds           sort a ``thresholds: [...]`` flow list and
                                drop duplicates together with the target (or
                                outcome) of each now-empty range
BF107  unknown-state            rewrite a transition target to the closest
                                declared state name (strictly-best match,
                                similarity >= 0.6)
BF201  split-overflow           proportionally rescale a service's live
                                traffic percentages so they sum to 100
BF503  missing-steady-state     append a ``steadyState:`` stub to a chaos
                                section that declares faults but no
                                hypothesis
=====  =======================  ==============================================

:func:`fix_text` applies the fixers in rounds until a full round changes
nothing (or :data:`MAX_PASSES` is hit), which makes it idempotent by
construction: ``fix_text(fix_text(text).text)`` never edits again.

Fixers only fire on documents the corresponding *error* rule would flag,
so a document that lints clean is returned byte-for-byte unchanged —
``--fix`` can never alter the enactment semantics of a valid strategy.
Where a defect has no defined semantics (unsorted thresholds, a traffic
split past 100 %), the fix is a *canonicalization*, not a preservation:
there was no behaviour to preserve.

All fixers are total in the same sense as lint rules: text that does not
parse, or shapes a fixer does not fully understand, are left untouched.
"""

from __future__ import annotations

import difflib
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from ..dsl.yaml_lite import YamlError, key_line, loads

#: Fixpoint cap: each round applies every fixer once; real documents
#: converge in one or two rounds, the cap keeps pathological inputs total.
MAX_PASSES = 8

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


@dataclass(frozen=True)
class FixEdit:
    """One applied fix: the line it touched and the rule it addressed."""

    line: int
    code: str
    description: str

    def __str__(self) -> str:
        return f"line {self.line}: [{self.code}] {self.description}"


@dataclass
class FixResult:
    """The fixed text plus a record of every edit, in application order."""

    text: str
    edits: list[FixEdit] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.edits)


def fix_text(text: str, file: str | None = None) -> FixResult:
    """Apply every fixer to *text* until a fixpoint is reached."""
    edits: list[FixEdit] = []
    for _ in range(MAX_PASSES):
        round_changed = False
        for fixer in _FIXERS:
            text, applied = fixer(text)
            if applied:
                edits.extend(applied)
                round_changed = True
        if not round_changed:
            break
    return FixResult(text, edits)


def fix_path(path: str) -> FixResult:
    """Fix a file in place; the file is rewritten only when edits applied."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    result = fix_text(text, file=path)
    if result.changed:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(result.text)
    return result


# -- BF105: sort/dedup threshold lists --------------------------------------

_THRESHOLDS_RE = re.compile(r"^(\s*)thresholds:\s*\[([^\]#]*)\]\s*$")
_COMPANION_RE = re.compile(r"^(\s*)(targets|outcomes):\s*\[([^\]#]*)\]\s*$")


def _parse_flow_numbers(body: str) -> list[tuple[str, float]] | None:
    """``(token, value)`` pairs of a numeric flow list, or None."""
    tokens = [t.strip() for t in body.split(",")]
    if any(not t for t in tokens):
        return None
    pairs = []
    for token in tokens:
        try:
            pairs.append((token, float(token)))
        except ValueError:
            return None
    return pairs


def _fix_thresholds(text: str) -> tuple[str, list[FixEdit]]:
    lines = text.split("\n")
    edits: list[FixEdit] = []
    for index, line in enumerate(lines):
        match = _THRESHOLDS_RE.match(line)
        if match is None:
            continue
        indent, body = match.groups()
        pairs = _parse_flow_numbers(body)
        if pairs is None or len(pairs) < 2:
            continue
        values = [value for _, value in pairs]
        if any(not math.isfinite(v) for v in values):
            continue  # NaN/inf thresholds have no meaningful order
        ordered = sorted(pairs, key=lambda pair: pair[1])
        is_sorted = values == [value for _, value in ordered]
        duplicates = [
            k
            for k in range(1, len(ordered))
            if ordered[k][1] == ordered[k - 1][1]
        ]
        if is_sorted and not duplicates:
            continue
        kept = ordered
        if duplicates:
            # Dropping threshold k empties the range its companion entry
            # (target or outcome) at index k covers — drop both, but only
            # when the companion list is present with matching arity.
            companion = _find_companion(lines, index, indent, len(pairs))
            if companion is None:
                duplicates = []
            else:
                companion_index, key, companion_tokens = companion
                kept = [p for k, p in enumerate(ordered) if k not in duplicates]
                new_companion = [
                    t
                    for k, t in enumerate(companion_tokens)
                    if k not in duplicates
                ]
                lines[companion_index] = (
                    f"{indent}{key}: [{', '.join(new_companion)}]"
                )
                edits.append(
                    FixEdit(
                        companion_index + 1,
                        "BF105",
                        f"dropped {key} of "
                        f"{len(duplicates)} empty duplicate range(s)",
                    )
                )
        lines[index] = (
            f"{indent}thresholds: [{', '.join(token for token, _ in kept)}]"
        )
        what = "sorted thresholds" if not duplicates else (
            "sorted thresholds and removed duplicates"
        )
        edits.append(FixEdit(index + 1, "BF105", what))
    return "\n".join(lines), edits


def _find_companion(
    lines: list[str], index: int, indent: str, count: int
) -> tuple[int, str, list[str]] | None:
    """The ``targets``/``outcomes`` flow list adjacent to a thresholds line
    (same indent, ``count + 1`` entries), searched one line either side."""
    for neighbor in (index + 1, index - 1):
        if not 0 <= neighbor < len(lines):
            continue
        match = _COMPANION_RE.match(lines[neighbor])
        if match is None or match.group(1) != indent:
            continue
        tokens = [t.strip() for t in match.group(3).split(",")]
        if len(tokens) == count + 1 and all(tokens):
            return neighbor, match.group(2), tokens
    return None


# -- BF107: closest-match unknown-state typos -------------------------------


def _closest_state(target: str, declared: list[str]) -> str | None:
    """The unique best match with similarity >= 0.6, else None.

    A tie between two candidates means the typo is ambiguous; guessing
    between them would silently pick a jump target, so no fix applies.
    """
    scored = sorted(
        (
            (difflib.SequenceMatcher(None, target, name).ratio(), name)
            for name in declared
        ),
        reverse=True,
    )
    if not scored or scored[0][0] < 0.6:
        return None
    if len(scored) > 1 and scored[1][0] == scored[0][0]:
        return None
    return scored[0][1]


def _state_bodies(document: Any):
    """``(kind, name, body)`` for every declared phase mapping."""
    strategy = document.get("strategy") if isinstance(document, dict) else None
    phases = strategy.get("phases") if isinstance(strategy, dict) else None
    if not isinstance(phases, list):
        return
    for item in phases:
        if not isinstance(item, dict) or len(item) != 1:
            continue
        kind = next(iter(item))
        body = item[kind]
        if kind in ("phase", "final", "rollout") and isinstance(body, dict):
            name = body.get("name")
            if isinstance(name, str):
                yield kind, name, body


def _fix_unknown_states(text: str) -> tuple[str, list[FixEdit]]:
    try:
        document = loads(text)
    except YamlError:
        return text, []
    declared = [name for _, name, _ in _state_bodies(document)]
    if not declared:
        return text, []
    lines = text.split("\n")
    edits: list[FixEdit] = []

    def rewrite_scalar(mapping: Any, key: str) -> None:
        target = mapping.get(key)
        if not isinstance(target, str) or target in declared:
            return
        replacement = _closest_state(target, declared)
        line = key_line(mapping, key)
        if replacement is None or line is None:
            return
        pattern = re.compile(
            rf"({re.escape(key)}\s*:\s*){re.escape(target)}\s*$"
        )
        new_line, count = pattern.subn(
            lambda m: m.group(1) + replacement, lines[line - 1]
        )
        if count:
            lines[line - 1] = new_line
            edits.append(
                FixEdit(
                    line,
                    "BF107",
                    f"{key}: {target!r} -> {replacement!r} (closest "
                    "declared state)",
                )
            )

    def rewrite_targets(transitions: Any) -> None:
        targets = transitions.get("targets")
        line = key_line(transitions, "targets")
        if not isinstance(targets, list) or line is None:
            return
        for target in targets:
            if not isinstance(target, str) or target in declared:
                continue
            replacement = _closest_state(target, declared)
            if replacement is None:
                continue
            pattern = re.compile(
                rf"(?<![\w.-]){re.escape(target)}(?![\w.-])"
            )
            new_line, count = pattern.subn(
                replacement, lines[line - 1], count=1
            )
            if count:
                lines[line - 1] = new_line
                edits.append(
                    FixEdit(
                        line,
                        "BF107",
                        f"targets: {target!r} -> {replacement!r} (closest "
                        "declared state)",
                    )
                )

    for kind, _, body in _state_bodies(document):
        if kind != "phase":
            continue
        for key in ("next", "onFailure"):
            rewrite_scalar(body, key)
        transitions = body.get("transitions")
        if isinstance(transitions, dict):
            rewrite_targets(transitions)
        checks = body.get("checks")
        if isinstance(checks, list):
            for item in checks:
                if isinstance(item, dict) and isinstance(
                    item.get("metric"), dict
                ):
                    rewrite_scalar(item["metric"], "fallback")
    return "\n".join(lines), edits


# -- BF201: normalize overflowing split sums --------------------------------

_PERCENTAGE_RE = re.compile(rf"(percentage\s*:\s*){_NUMBER}\s*$")


def _live_traffic_entries(body: Any):
    """``(traffic_mapping, percentage)`` per live (non-shadow) filter of a
    phase body, grouped by service name."""
    groups: dict[str, list[tuple[Any, float]]] = {}
    complete: dict[str, bool] = {}
    routes = body.get("routes")
    if not isinstance(routes, list):
        return groups
    for item in routes:
        if not isinstance(item, dict) or set(item) != {"route"}:
            continue
        route = item["route"]
        if not isinstance(route, dict):
            continue
        service = route.get("from")
        if not isinstance(service, str):
            continue
        bucket = groups.setdefault(service, [])
        complete.setdefault(service, True)
        filters = route.get("filters")
        if not isinstance(filters, list):
            continue
        for filter_item in filters:
            if not isinstance(filter_item, dict):
                continue
            traffic = filter_item.get("traffic")
            if not isinstance(traffic, dict) or traffic.get("shadow") is True:
                continue
            percent = traffic.get("percentage")
            if isinstance(percent, bool) or not isinstance(
                percent, (int, float)
            ):
                # An implicit (defaulted) percentage has no line to edit;
                # the whole service group becomes un-normalizable.
                complete[service] = False
                continue
            bucket.append((traffic, float(percent)))
    return {
        service: entries
        for service, entries in groups.items()
        if complete.get(service) and entries
    }


def _fix_split_overflow(text: str) -> tuple[str, list[FixEdit]]:
    try:
        document = loads(text)
    except YamlError:
        return text, []
    lines = text.split("\n")
    edits: list[FixEdit] = []
    for _, name, body in _state_bodies(document):
        for service, entries in _live_traffic_entries(body).items():
            if any(percent < 0 or not math.isfinite(percent) for _, percent in entries):
                continue  # negative or infinite splits need a human, not a rescale
            total = sum(percent for _, percent in entries)
            if total <= 100.0 + 1e-9:
                continue
            factor = 100.0 / total
            for traffic, percent in entries:
                line = key_line(traffic, "percentage")
                if line is None:
                    continue
                # Floor at 4 decimals so the rescaled sum stays <= 100.
                scaled = math.floor(percent * factor * 10000.0) / 10000.0
                new_line, count = _PERCENTAGE_RE.subn(
                    lambda m: f"{m.group(1)}{scaled:g}", lines[line - 1]
                )
                if count:
                    lines[line - 1] = new_line
                    edits.append(
                        FixEdit(
                            line,
                            "BF201",
                            f"state {name!r}: rescaled {service!r} "
                            f"{percent:g}% -> {scaled:g}% "
                            f"(splits summed to {total:g}%)",
                        )
                    )
    return "\n".join(lines), edits


# -- BF503: stub a missing steadyState --------------------------------------


def _faulted_providers(chaos: Any) -> set[str]:
    """Providers a rate-1.0 error/hang fault would fully fail (the BF605
    contradiction) — the stub must not read through one of these."""
    providers: set[str] = set()
    faults = chaos.get("faults")
    if not isinstance(faults, list):
        return providers
    for item in faults:
        if not isinstance(item, dict) or not isinstance(
            item.get("fault"), dict
        ):
            continue
        body = item["fault"]
        target = body.get("target")
        if not isinstance(target, str):
            continue
        kind, _, provider = target.partition(":")
        if kind != "provider" or not provider:
            continue
        mode = body.get("mode") if isinstance(body.get("mode"), str) else "error"
        rate = body.get("rate")
        rate = float(rate) if isinstance(rate, (int, float)) and not isinstance(rate, bool) else 1.0
        if mode in ("error", "hang") and rate >= 1.0:
            providers.add(provider)
    return providers


def _template_check(document: Any, avoid: set[str]) -> dict[str, str]:
    """Provider/query/validator for the stub, copied from the first
    strategy check whose provider is not in *avoid*; generic fallback."""
    fallback = {"provider": "prometheus", "query": "up", "validator": ">= 1"}
    for _, _, body in _state_bodies(document):
        checks = body.get("checks")
        if not isinstance(checks, list):
            continue
        for item in checks:
            if not isinstance(item, dict):
                continue
            metric = item.get("metric")
            if not isinstance(metric, dict):
                continue
            provider = metric.get("provider")
            query = metric.get("query")
            validator = metric.get("validator")
            if not all(
                isinstance(v, str) for v in (provider, query, validator)
            ):
                continue
            if provider in avoid:
                continue
            return {
                "provider": provider,
                "query": query,
                "validator": validator,
            }
    # Every known provider may be contradicted; the stub still goes in so
    # BF503 is satisfied — BF605 will point at the real conflict.
    return fallback


def _fix_missing_steady_state(text: str) -> tuple[str, list[FixEdit]]:
    try:
        document = loads(text)
    except YamlError:
        return text, []
    if not isinstance(document, dict):
        return text, []
    chaos = document.get("chaos")
    if not isinstance(chaos, dict):
        return text, []
    faults = chaos.get("faults")
    if not isinstance(faults, list) or not faults:
        return text, []
    steady = chaos.get("steadyState")
    if isinstance(steady, list) and steady:
        return text, []
    if steady is not None:
        return text, []  # present but malformed: not this fixer's call
    chaos_line = key_line(document, "chaos")
    if chaos_line is None:
        return text, []
    lines = text.split("\n")
    # The chaos block ends at the next top-level key (or EOF); the stub
    # goes after its last non-blank line.
    end = len(lines)
    for index in range(chaos_line, len(lines)):
        line = lines[index]
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and not line[0].isspace():
            end = index
            break
    while end > chaos_line and not lines[end - 1].strip():
        end -= 1
    columns = getattr(chaos, "key_columns", {})
    child_indent = " " * (min(columns.values()) - 1 if columns else 2)
    template = _template_check(document, _faulted_providers(chaos))
    stub = [
        f"{child_indent}steadyState:",
        f"{child_indent}  - metric:",
        f"{child_indent}      name: steady_state",
        f"{child_indent}      provider: {template['provider']}",
        f"{child_indent}      query: {template['query']}",
        f"{child_indent}      validator: \"{template['validator']}\"",
        f"{child_indent}      intervalTime: 5",
        f"{child_indent}      intervalLimit: 1",
        f"{child_indent}      threshold: 1",
    ]
    lines[end:end] = stub
    edit = FixEdit(
        end + 1,
        "BF503",
        f"stubbed steadyState: reading {template['query']!r} through "
        f"provider {template['provider']!r}",
    )
    return "\n".join(lines), [edit]


_FIXERS: tuple[Callable[[str], tuple[str, list[FixEdit]]], ...] = (
    _fix_thresholds,
    _fix_unknown_states,
    _fix_split_overflow,
    _fix_missing_steady_state,
)


__all__ = ["FixEdit", "FixResult", "MAX_PASSES", "fix_path", "fix_text"]
