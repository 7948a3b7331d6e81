"""A small Prometheus-like query language.

The paper's DSL embeds provider queries such as
``request_errors{instance="search:80"}`` (Listing 1).  This module
implements the subset of PromQL needed by live testing strategies:

* instant vector selectors with label matchers
  (``=``, ``!=``, ``=~``, ``!~``),
* range functions over a window: ``rate``, ``increase``, ``avg_over_time``,
  ``min_over_time``, ``max_over_time``, ``sum_over_time``,
  ``count_over_time``,
* vector aggregations: ``sum``, ``avg``, ``min``, ``max``, ``count``,
* ``histogram_quantile(q, <bucket selector>)`` over cumulative
  ``..._bucket{le=...}`` series (the "p95 response time below 150 ms"
  check),
* scalar arithmetic on the result: ``expr * 100``, ``expr + 5`` and the
  like, with scalars on either side.

Evaluation is an *instant query*: the expression is evaluated at one point
in time against a :class:`~repro.metrics.store.MetricStore`, yielding a
vector of ``(labels, value)`` pairs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple
from weakref import WeakKeyDictionary

from .aggregate import rescan_value
from .series import NO_LABELS, Labels, TimeSeries
from .store import CACHE_ENTRIES, RETAIN_LIMIT, LabelMatcher, MetricStore, retained

#: Instant selectors ignore samples older than this, like Prometheus.
STALENESS = 300.0

AGGREGATIONS = ("sum", "avg", "min", "max", "count")
RANGE_FUNCTIONS = (
    "rate",
    "increase",
    "avg_over_time",
    "min_over_time",
    "max_over_time",
    "sum_over_time",
    "count_over_time",
)


class QueryError(Exception):
    """The query is syntactically or semantically invalid."""


class VectorSample(NamedTuple):
    """One element of an instant-vector result.  ``labels`` is the series'
    own read-only :class:`Labels` (or ``NO_LABELS``), never a copy."""

    labels: Mapping[str, str]
    value: float


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Selector:
    name: str
    matchers: tuple[LabelMatcher, ...] = ()
    window: float | None = None  # range selector when not None


@dataclass(frozen=True)
class FunctionCall:
    function: str
    argument: Selector


@dataclass(frozen=True)
class Aggregation:
    op: str
    argument: "Expression"


@dataclass(frozen=True)
class Scalar:
    value: float


@dataclass(frozen=True)
class HistogramQuantile:
    quantile: float
    argument: Selector


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "Expression"
    right: "Expression"


Expression = (
    Selector | FunctionCall | Aggregation | Scalar | BinaryOp | HistogramQuantile
)


# -- Tokenizer -----------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[a-zA-Z_:][a-zA-Z0-9_:]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>=~|!~|!=|=|\{|\}|\(|\)|\[|\]|,|\+|-|\*|/)
  | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise QueryError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "space":
            continue
        tokens.append((kind, match.group()))
    return tokens


_DURATION_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

#: The deepest tree a query may build, one level per parenthesis, function
#: call, aggregation and binary operator: a deeper one would exhaust the
#: interpreter's recursion limit while it is parsed or evaluated.
MAX_QUERY_DEPTH = 100


def _deeper(depth: int) -> int:
    if depth >= MAX_QUERY_DEPTH:
        raise QueryError(f"query nests deeper than {MAX_QUERY_DEPTH} levels")
    return depth + 1


class _Parser:
    """Recursive-descent parser for the grammar above."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._index = 0
        self._open = 0  # enclosing parentheses and aggregations

    def parse(self) -> Expression:
        expression, _ = self._expression()
        if self._index != len(self._tokens):
            kind, value = self._tokens[self._index]
            raise QueryError(f"trailing input at token {value!r}")
        return expression

    # expression := term (("+"|"-") term)*
    # term       := factor (("*"|"/") factor)*
    # Each returns its tree with the tree's depth, see MAX_QUERY_DEPTH.
    def _expression(self) -> tuple[Expression, int]:
        left, depth = self._term()
        while self._peek_op() in ("+", "-"):
            op = self._next()[1]
            right, right_depth = self._term()
            left, depth = BinaryOp(op, left, right), _deeper(max(depth, right_depth))
        return left, depth

    def _term(self) -> tuple[Expression, int]:
        left, depth = self._factor()
        while self._peek_op() in ("*", "/"):
            op = self._next()[1]
            right, right_depth = self._factor()
            left, depth = BinaryOp(op, left, right), _deeper(max(depth, right_depth))
        return left, depth

    def _nested(self) -> tuple[Expression, int]:
        """The expression inside a parenthesis or an aggregation, and ``)``."""
        # Checked on the way down too: 3,000 "(" would overflow the
        # parser's own recursion before any depth came back up.
        self._open = _deeper(self._open)
        inner, depth = self._expression()
        self._expect_op(")")
        self._open -= 1
        return inner, _deeper(depth)

    def _factor(self) -> tuple[Expression, int]:
        kind, value = self._peek()
        if kind == "number":
            self._next()
            return Scalar(float(value)), 1
        if kind == "op" and value == "(":
            self._next()
            return self._nested()
        if kind == "ident":
            if value == "histogram_quantile" and self._peek_op(offset=1) == "(":
                self._next()
                self._expect_op("(")
                kind, raw = self._next()
                if kind != "number":
                    raise QueryError(
                        f"histogram_quantile needs a numeric quantile, got {raw!r}"
                    )
                quantile = float(raw)
                if not 0.0 <= quantile <= 1.0:
                    raise QueryError(f"quantile must be in [0, 1], got {quantile}")
                self._expect_op(",")
                selector = self._selector()
                if selector.window is not None:
                    raise QueryError(
                        "histogram_quantile takes an instant bucket selector"
                    )
                self._expect_op(")")
                return HistogramQuantile(quantile, selector), 2
            if value in AGGREGATIONS and self._peek_op(offset=1) == "(":
                self._next()
                self._expect_op("(")
                inner, depth = self._nested()
                return Aggregation(value, inner), depth
            if value in RANGE_FUNCTIONS:
                self._next()
                self._expect_op("(")
                selector = self._selector()
                if selector.window is None:
                    raise QueryError(
                        f"{value}() requires a range selector like name[30s]"
                    )
                self._expect_op(")")
                return FunctionCall(value, selector), 2
            return self._selector(), 1
        raise QueryError(f"unexpected token {value!r}")

    def _selector(self) -> Selector:
        kind, name = self._next()
        if kind != "ident":
            raise QueryError(f"expected metric name, got {name!r}")
        matchers: list[LabelMatcher] = []
        if self._peek_op() == "{":
            self._next()
            while True:
                if self._peek_op() == "}":
                    break
                matchers.append(self._matcher())
                if self._peek_op() == ",":
                    self._next()
                    continue
                break
            self._expect_op("}")
        window = None
        if self._peek_op() == "[":
            self._next()
            window = self._duration()
            self._expect_op("]")
        return Selector(name, tuple(matchers), window)

    def _matcher(self) -> LabelMatcher:
        kind, label = self._next()
        if kind != "ident":
            raise QueryError(f"expected label name, got {label!r}")
        kind, op = self._next()
        if kind != "op" or op not in ("=", "!=", "=~", "!~"):
            raise QueryError(f"expected label operator, got {op!r}")
        kind, raw = self._next()
        if kind != "string":
            raise QueryError(f"expected quoted label value, got {raw!r}")
        value = raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        try:
            return LabelMatcher(label, op, value)
        except ValueError as exc:  # a regex that does not compile
            raise QueryError(str(exc)) from None

    def _duration(self) -> float:
        kind, number = self._next()
        if kind != "number":
            raise QueryError(f"expected duration, got {number!r}")
        kind, unit = self._next()
        if kind != "ident" or unit not in _DURATION_SECONDS:
            raise QueryError(f"expected duration unit, got {unit!r}")
        return float(number) * _DURATION_SECONDS[unit]

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> tuple[str, str]:
        index = self._index + offset
        if index >= len(self._tokens):
            return ("eof", "")
        return self._tokens[index]

    def _peek_op(self, offset: int = 0) -> str | None:
        kind, value = self._peek(offset)
        return value if kind == "op" else None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token[0] == "eof":
            raise QueryError("unexpected end of query")
        self._index += 1
        return token

    def _expect_op(self, op: str) -> None:
        kind, value = self._next()
        if kind != "op" or value != op:
            raise QueryError(f"expected {op!r}, got {value!r}")


def parse(query: str) -> Expression:
    """Parse *query* into an expression tree (always a fresh parse)."""
    tokens = _tokenize(query)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()


_compiled = lru_cache(maxsize=4096)(parse)
#: Hit/miss statistics of the compiled-query cache.
compile_cache_info = _compiled.cache_info


def compile_query(query: str) -> Expression:
    """Parse *query*, memoizing the result per query string.

    Check conditions evaluate the same handful of query strings on every
    timer tick; the AST is immutable (frozen dataclasses), so one parse
    serves every subsequent evaluation.  Parse errors are not cached —
    ``lru_cache`` does not memoize raised exceptions — and neither is a
    query longer than ``RETAIN_LIMIT``.
    """
    return parse(query) if len(query) > RETAIN_LIMIT else _compiled(query)


# -- Evaluation ----------------------------------------------------------------


def evaluate(store: MetricStore, expression: Expression | str, at: float) -> list[VectorSample]:
    """Evaluate an instant query at time *at* against *store*.

    Strings go through the compiled-query cache; callers on a hot loop can
    also pass a pre-compiled :data:`Expression` directly.
    """
    if isinstance(expression, str):
        expression = compile_query(expression)
    return _eval(store, expression, at)


def evaluate_scalar(store: MetricStore, expression: Expression | str, at: float) -> float | None:
    """Evaluate and collapse to one number.

    A vector with several elements is summed — the pragmatic behaviour a
    check wants when its selector matches several instances.  Returns
    ``None`` when the vector is empty (no data), which checks treat as a
    failed evaluation.
    """
    vector = evaluate(store, expression, at)
    if not vector:
        return None
    return sum(sample.value for sample in vector)


def _eval(store: MetricStore, node: Expression, at: float) -> list[VectorSample]:
    if isinstance(node, Scalar):
        return [VectorSample(NO_LABELS, node.value)]
    if isinstance(node, Selector):
        if node.window is not None:
            raise QueryError("range selector needs a function like rate()")
        result = []
        for series in store.select(node.name, node.matchers):
            value = series.value_at(at, staleness=STALENESS)
            if value is not None:
                result.append(VectorSample(series.labels, value))
        return result
    if isinstance(node, FunctionCall):
        selector = node.argument
        window = selector.window or 0.0
        function = node.function
        result = []
        for series in store.select(selector.name, selector.matchers):
            value = rescan_value(series, function, window, at)
            if value is not None:
                result.append(VectorSample(series.labels, value))
        return result
    if isinstance(node, Aggregation):
        return _reduce(node.op, _eval(store, node.argument, at))
    if isinstance(node, HistogramQuantile):
        return _histogram_quantile(store, node, at)
    if isinstance(node, BinaryOp):
        left = _eval(store, node.left, at)
        right = _eval(store, node.right, at)
        return _combine(node.op, left, right)
    raise QueryError(f"cannot evaluate node {node!r}")


def _reduce(op: str, vector: list[VectorSample]) -> list[VectorSample]:
    """Collapse a vector through an aggregation operator.

    Shared by :func:`_eval` and the plan evaluator
    (:mod:`repro.metrics.plan`), which reduces memoized child vectors
    without re-entering the recursive walk.
    """
    if not vector:
        return []
    values = [sample.value for sample in vector]
    if op == "sum":
        value = sum(values)
    elif op == "avg":
        value = sum(values) / len(values)
    elif op == "min":
        value = min(values)
    elif op == "max":
        value = max(values)
    else:
        value = float(len(values))
    return [VectorSample(NO_LABELS, value)]


#: Grouped/sorted histogram bucket layouts, cached per store and selector.
#: A layout is pure structure — which bucket series exist, grouped by their
#: labels minus ``le`` and sorted by bound — so it only changes when a new
#: series appears; it is keyed on ``store.series_generation`` and survives
#: every sample append.  A group's labels are one :class:`Labels`, rendered
#: once per layout; values are read live through ``series.value_at``.  A
#: store keeps at most ``CACHE_ENTRIES`` layouts, the oldest evicted first.
_BucketLayout = list[tuple[Labels, list[tuple[float, TimeSeries]]]]
_LAYOUT_CACHES: "WeakKeyDictionary[MetricStore, dict]" = WeakKeyDictionary()

#: Process-wide hit/miss tally for the layout cache, surfaced on health
#: endpoints so operators can see the cache actually carrying load.
_LAYOUT_CACHE_STATS = {"hits": 0, "misses": 0}


def layout_cache_info() -> dict[str, int]:
    """Hit/miss statistics of the histogram bucket-layout cache."""
    return dict(_LAYOUT_CACHE_STATS)


def _bucket_layout(store: MetricStore, selector: Selector) -> _BucketLayout:
    """The selector's bucket series grouped and sorted, cached per store."""
    caches = _LAYOUT_CACHES.get(store)
    if caches is None:
        caches = {}
        _LAYOUT_CACHES[store] = caches
    cache_key = (selector.name, selector.matchers)
    generation = store.series_generation
    cached = caches.get(cache_key)
    if cached is not None and cached[0] == generation:
        _LAYOUT_CACHE_STATS["hits"] += 1
        return cached[1]
    _LAYOUT_CACHE_STATS["misses"] += 1
    groups: dict[tuple[tuple[str, str], ...], list[tuple[float, TimeSeries]]] = {}
    for series in store.select(selector.name, selector.matchers):
        labels = dict(series.labels)  # a copy: the series' own is read-only
        raw_bound = labels.pop("le", None)
        if raw_bound is None:
            continue  # not a bucket series
        try:
            bound = float("inf") if raw_bound == "+Inf" else float(raw_bound)
        except ValueError:
            continue
        key = tuple(sorted(labels.items()))
        groups.setdefault(key, []).append((bound, series))
    layout: _BucketLayout = [
        (Labels(key), sorted(buckets, key=lambda pair: pair[0]))
        for key, buckets in groups.items()
    ]
    if retained(selector.name, selector.matchers):
        if cached is None and len(caches) >= CACHE_ENTRIES:
            del caches[next(iter(caches))]
        caches[cache_key] = (generation, layout)
    return layout


def _histogram_quantile(
    store: MetricStore, node: HistogramQuantile, at: float
) -> list[VectorSample]:
    """Interpolated quantile over cumulative ``le`` buckets.

    Bucket series are grouped by their labels minus ``le`` (one histogram
    per instance), and the quantile is linearly interpolated inside the
    bucket where the target rank falls — Prometheus' algorithm, including
    the "clamp to the highest finite bound" rule for the +Inf bucket.
    The grouping and sorting are cached per selector (see
    :func:`_bucket_layout`); each evaluation only reads current bucket
    counts and interpolates.
    """
    result = []
    for labels, layout in _bucket_layout(store, node.argument):
        # Stale/empty series drop out per tick, exactly as the uncached
        # path dropped ``None`` values before grouping.
        buckets = [
            (bound, value)
            for bound, series in layout
            if (value := series.value_at(at, staleness=STALENESS)) is not None
        ]
        if not buckets:
            continue
        total = buckets[-1][1] if buckets else 0.0
        if total <= 0 or buckets[-1][0] != float("inf"):
            continue  # empty histogram, or malformed (no +Inf bucket)
        rank = node.quantile * total
        previous_bound = 0.0
        previous_count = 0.0
        value = buckets[-2][0] if len(buckets) > 1 else 0.0
        for bound, count in buckets:
            if count >= rank:
                if bound == float("inf"):
                    # Rank in the overflow bucket: clamp to the highest
                    # finite bound (Prometheus semantics).
                    value = previous_bound if len(buckets) > 1 else float("inf")
                elif count == previous_count:
                    value = bound
                else:
                    fraction = (rank - previous_count) / (count - previous_count)
                    value = previous_bound + (bound - previous_bound) * fraction
                break
            previous_bound, previous_count = bound, count
        result.append(VectorSample(labels, value))
    return result


def _divide(a: float, b: float) -> float:
    """``a / b``, over a zero as IEEE 754 (and PromQL) divide by +0:
    ±Inf with the numerator's sign, NaN for ``0 / 0``.  The sign of a zero
    denominator is not consulted, so the lint interval domain, which does
    not track it, stays sound (``repro.lint.domains``)."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a)


#: The binary arithmetic operators, built once rather than per evaluation.
_OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}


def _combine(
    op: str, left: list[VectorSample], right: list[VectorSample]
) -> list[VectorSample]:
    """Vector/scalar arithmetic; scalar sides broadcast over vector sides."""
    apply = _OPERATORS[op]
    if len(left) == 1 and not left[0].labels:
        return [VectorSample(s.labels, apply(left[0].value, s.value)) for s in right]
    if len(right) == 1 and not right[0].labels:
        return [VectorSample(s.labels, apply(s.value, right[0].value)) for s in left]
    # Element-wise on identical label sets, Prometheus-style one-to-one match.
    by_labels = {tuple(sorted(s.labels.items())): s.value for s in right}
    combined = []
    for sample in left:
        key = tuple(sorted(sample.labels.items()))
        if key in by_labels:
            combined.append(VectorSample(sample.labels, apply(sample.value, by_labels[key])))
    return combined
