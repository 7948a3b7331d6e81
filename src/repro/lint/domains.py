"""Interval abstract domain over compiled metric-query ASTs.

The semantic rules (BF601/BF602) need to answer one question: *which
values can this query possibly produce?*  This module answers it with
classic interval abstract interpretation over the frozen expression AST
:func:`repro.metrics.query.compile_query` returns — every node maps to a
closed interval ``[lo, hi]`` (with infinite endpoints) that soundly
over-approximates the evaluator's possible outputs.

Where bounds come from
----------------------

* **Arithmetic** is exact interval arithmetic.  Division mirrors the
  evaluator's IEEE 754 rule: over a zero the quotient is ``±inf`` by the
  numerator's sign, so a denominator interval containing 0 extends the
  result to the infinities the numerator's signs reach, and ``0 / 0`` is
  NaN, so a quotient whose numerator and denominator can both be 0 is
  marked ``nan``.  The evaluator ignores the sign of a zero denominator,
  which the domain could not track.
* **Range functions**: ``rate``/``increase`` accumulate only
  non-negative deltas plus counter resets, so they are provably
  ``>= 0`` for *any* input series; ``count_over_time`` returns at least
  1 when it returns at all (no data is "no value", not 0); the
  ``*_over_time`` min/avg/max functions preserve the selector's bounds.
* **Aggregations**: ``min``/``max``/``avg`` preserve bounds; ``count``
  of a non-empty vector is ``>= 1``; ``sum`` of same-signed values keeps
  the closed side of the sign.
* **histogram_quantile** interpolates within cumulative bucket bounds
  starting at 0.0, so with the universal Prometheus convention of
  non-negative ``le`` edges it is ``>= 0``.
* **Selectors** use Prometheus *naming conventions* as documented
  assumptions, not guarantees: ``*_total`` / ``*_count`` / ``*_bucket``
  are counters (monotone, ``>= 0``), ``*_ratio`` lies in ``[0, 1]``,
  and ``up`` is the 0/1 liveness gauge.  Everything else is unbounded.

The conventions make the domain *sound relative to well-named metrics*:
a gauge deliberately named ``requests_total`` that goes negative would
evade BF601.  That trade is intentional — without naming conventions
every selector is ``[-inf, inf]`` and the domain proves nothing.

A check over ``None``/NaN always *fails* (see
:class:`repro.core.outcome.Validator`).  That agrees with BF601's "can
never pass" verdict, and an interval marked ``nan`` is never called
tautological by BF602.  Missing data, NaN samples and the NaN of
arithmetic on infinities (``inf - inf``, ``0 * inf``, ``inf / inf``) stay
outside the domain: they only weaken BF602's "always passes" verdict from
a theorem to a strong warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..metrics.query import (
    Aggregation,
    BinaryOp,
    Expression,
    FunctionCall,
    HistogramQuantile,
    Scalar,
    Selector,
)

_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; endpoints may be infinite."""

    lo: float = -_INF
    hi: float = _INF
    #: The query can also yield NaN (``0 / 0``), which no validator accepts.
    nan: bool = False

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        def fmt(x: float) -> str:
            if x == _INF:
                return "+inf"
            if x == -_INF:
                return "-inf"
            return f"{int(x)}" if x == int(x) else f"{x:g}"

        bounds = f"[{fmt(self.lo)}, {fmt(self.hi)}]"
        return f"{bounds} or NaN" if self.nan else bounds


TOP = Interval()
NON_NEGATIVE = Interval(0.0, _INF)
UNIT = Interval(0.0, 1.0)

#: Metric-name suffixes that mark Prometheus counters (monotone, >= 0).
_COUNTER_SUFFIXES = ("_total", "_count", "_bucket")


def selector_interval(name: str) -> Interval:
    """Bounds implied by Prometheus naming conventions (see module doc)."""
    if name.endswith(_COUNTER_SUFFIXES):
        return NON_NEGATIVE
    if name.endswith("_ratio") or name == "up":
        return UNIT
    return TOP


def _mul_bound(a: float, b: float) -> float:
    # Interval endpoints multiply with the 0 * inf = 0 convention: the
    # zero endpoint means "the value 0 is attainable", whose product is 0.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _add(x: Interval, y: Interval) -> Interval:
    return Interval(x.lo + y.lo, x.hi + y.hi, x.nan or y.nan)


def _sub(x: Interval, y: Interval) -> Interval:
    return Interval(x.lo - y.hi, x.hi - y.lo, x.nan or y.nan)


def _mul(x: Interval, y: Interval) -> Interval:
    products = [
        _mul_bound(x.lo, y.lo),
        _mul_bound(x.lo, y.hi),
        _mul_bound(x.hi, y.lo),
        _mul_bound(x.hi, y.hi),
    ]
    return Interval(min(products), max(products), x.nan or y.nan)


def _div(x: Interval, y: Interval) -> Interval:
    nan = x.nan or y.nan
    if 0.0 in y:
        # x / 0 is +inf for x > 0, -inf for x < 0 and NaN for 0 / 0.  Over
        # a non-negative denominator the quotient keeps the numerator's
        # sign; any other mix reaches both infinities.
        nan = nan or 0.0 in x
        if y.lo >= 0.0 and x.lo >= 0.0:
            return Interval(0.0, _INF, nan)
        if y.lo >= 0.0 and x.hi <= 0.0:
            return Interval(-_INF, 0.0, nan)
        return Interval(-_INF, _INF, nan)
    quotients = [
        _mul_bound(x.lo, 1.0 / y.lo),
        _mul_bound(x.lo, 1.0 / y.hi),
        _mul_bound(x.hi, 1.0 / y.lo),
        _mul_bound(x.hi, 1.0 / y.hi),
    ]
    return Interval(min(quotients), max(quotients), nan)


def _sum_of(values: Interval) -> Interval:
    """Sum of one-or-more values drawn from *values*."""
    lo = values.lo if values.lo >= 0.0 else -_INF
    hi = values.hi if values.hi <= 0.0 else _INF
    return Interval(lo, hi, values.nan)


def interval_of(expression: Expression) -> Interval:
    """Sound over-approximation of every value *expression* can yield."""
    if isinstance(expression, Scalar):
        return Interval(expression.value, expression.value)
    if isinstance(expression, Selector):
        return selector_interval(expression.name)
    if isinstance(expression, FunctionCall):
        inner = selector_interval(expression.argument.name)
        if expression.function in ("rate", "increase"):
            return NON_NEGATIVE
        if expression.function == "count_over_time":
            return Interval(1.0, _INF)
        if expression.function == "sum_over_time":
            return _sum_of(inner)
        # avg/min/max_over_time stay within the sampled values.
        return inner
    if isinstance(expression, Aggregation):
        inner = interval_of(expression.argument)
        if expression.op == "count":
            # An empty vector aggregates to "no data", never to 0.
            return Interval(1.0, _INF)
        if expression.op == "sum":
            return _sum_of(inner)
        return inner
    if isinstance(expression, HistogramQuantile):
        # Interpolation between cumulative bucket edges, the first of
        # which is pinned at 0.0; non-negative by the `le` convention.
        return NON_NEGATIVE
    if isinstance(expression, BinaryOp):
        left = interval_of(expression.left)
        right = interval_of(expression.right)
        if expression.op == "+":
            return _add(left, right)
        if expression.op == "-":
            return _sub(left, right)
        if expression.op == "*":
            return _mul(left, right)
        return _div(left, right)
    return TOP  # unknown node kinds stay unbounded — soundness first


def never_holds(interval: Interval, op: str, bound: float) -> bool:
    """True when ``value <op> bound`` is false for *every* value in
    *interval* — the validator is unsatisfiable."""
    if math.isnan(bound):
        return False
    if op == "<":
        return interval.lo >= bound
    if op == "<=":
        return interval.lo > bound
    if op == ">":
        return interval.hi <= bound
    if op == ">=":
        return interval.hi < bound
    if op == "==":
        return bound < interval.lo or bound > interval.hi
    if op == "!=":
        return interval.lo == interval.hi == bound
    return False


def always_holds(interval: Interval, op: str, bound: float) -> bool:
    """True when ``value <op> bound`` is true for *every* value in
    *interval* — the validator is a tautology (modulo missing data)."""
    if math.isnan(bound) or interval.nan:
        return False
    if op == "<":
        return interval.hi < bound
    if op == "<=":
        return interval.hi <= bound
    if op == ">":
        return interval.lo > bound
    if op == ">=":
        return interval.lo >= bound
    if op == "==":
        return interval.lo == interval.hi == bound and not math.isinf(bound)
    if op == "!=":
        return bound < interval.lo or bound > interval.hi
    return False


__all__ = [
    "Interval",
    "NON_NEGATIVE",
    "TOP",
    "UNIT",
    "always_holds",
    "interval_of",
    "never_holds",
    "selector_interval",
]
