"""Thresholds, ranges, output mappings, and metric validators.

Implements the numeric plumbing of the model (section 3.2):

* An ordered tuple of thresholds ⟨t1..tn⟩ forms n+1 disjoint ranges
  (−∞, t1], (t1, t2], ..., (tn, ∞) — :class:`ThresholdRanges`.
* A basic check's aggregated outcome e is mapped to an integer r_i via an
  output mapping Out_ci over those ranges — :class:`OutputMapping`.
* A check's per-execution function f_ci compares a queried metric value to
  a validator expression like ``"<5"`` and yields 0 or 1 —
  :class:`Validator`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence


class OutcomeError(Exception):
    """A threshold tuple, mapping, or validator is invalid."""


@dataclass(frozen=True)
class ThresholdRanges:
    """Ordered thresholds ⟨t1..tn⟩ forming n+1 disjoint half-open ranges.

    ``index_of(e)`` returns which range e falls into: 0 for e ≤ t1, i for
    t_i < e ≤ t_{i+1}, and n for e > t_n.  With no thresholds there is a
    single range (index 0) — used by states that always take the same
    transition.
    """

    thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for threshold in self.thresholds:
            # NaN defeats ordering comparisons, so an explicit finiteness
            # check must come first or ⟨nan, 1⟩ would slip through as
            # "sorted" and make index_of unstable.
            if not math.isfinite(threshold):
                raise OutcomeError(
                    f"thresholds must be finite numbers: {self.thresholds}"
                )
        for left, right in zip(self.thresholds, self.thresholds[1:]):
            if left == right:
                raise OutcomeError(
                    f"duplicate threshold {left}: {self.thresholds}"
                )
            if left > right:
                raise OutcomeError(
                    f"thresholds are not sorted ({left:g} before {right:g}); "
                    f"they must be strictly increasing: {self.thresholds}"
                )

    @property
    def range_count(self) -> int:
        return len(self.thresholds) + 1

    def index_of(self, value: float) -> int:
        for index, threshold in enumerate(self.thresholds):
            if value <= threshold:
                return index
        return len(self.thresholds)

    def describe(self, index: int) -> str:
        """Human-readable range description for dashboards and logs."""
        if index < 0 or index >= self.range_count:
            raise OutcomeError(f"range index {index} out of bounds")
        if not self.thresholds:
            return "(-inf, +inf)"
        if index == 0:
            return f"(-inf, {self.thresholds[0]}]"
        if index == len(self.thresholds):
            return f"({self.thresholds[-1]}, +inf)"
        return f"({self.thresholds[index - 1]}, {self.thresholds[index]}]"


@dataclass(frozen=True)
class OutputMapping:
    """Out_ci : maps a basic check's aggregated outcome onto an integer.

    Built from thresholds ⟨t1..tn⟩ and n+1 result values, one per range.
    The paper's example: thresholds (75, 95) with results (−5, 4, 5) maps
    e ≤ 75 → −5, 75 < e ≤ 95 → 4, e > 95 → 5.
    """

    ranges: ThresholdRanges
    results: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.results) != self.ranges.range_count:
            raise OutcomeError(
                f"{self.ranges.range_count} ranges need exactly that many "
                f"results, got {len(self.results)}"
            )

    @classmethod
    def from_pairs(
        cls, thresholds: Sequence[float], results: Sequence[int]
    ) -> "OutputMapping":
        return cls(ThresholdRanges(tuple(thresholds)), tuple(results))

    @classmethod
    def boolean(cls, pass_threshold: float, success: int = 1, failure: int = 0) -> "OutputMapping":
        """The simplified-DSL mapping: e > threshold → success, else failure.

        The DSL gives each check exactly one threshold; e.g. with
        ``threshold: 12`` and 12 executions, only a perfect 12/12 maps to
        success (the aggregated sum must *exceed* threshold − 1).
        """
        return cls(ThresholdRanges((pass_threshold - 1,)), (failure, success))

    def map(self, outcome: float) -> int:
        return self.results[self.ranges.index_of(outcome)]


#: The comparison operators validators and cross-metric comparisons use.
COMPARISONS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Validator expressions: an operator and a number, e.g. "<5", ">= 0.99".
#: Scientific notation is accepted so serialized bounds round-trip.
_VALIDATOR = re.compile(
    r"^\s*(<=|>=|==|!=|<|>)\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*$"
)


@dataclass(frozen=True)
class Validator:
    """A check's per-execution predicate over a queried metric value.

    Compiled from DSL strings like ``"<5"`` (paper Listing 1, line 10).
    ``None`` input — the provider had no data — always fails: a check
    cannot pass on missing monitoring data.
    """

    op: str
    bound: float

    @classmethod
    def parse(cls, expression: str) -> "Validator":
        match = _VALIDATOR.match(expression)
        if match is None:
            raise OutcomeError(f"bad validator expression: {expression!r}")
        return cls(match.group(1), float(match.group(2)))

    def check(self, value: float | None) -> int:
        """Evaluate to 1 (pass) or 0 (fail)."""
        if value is None or math.isnan(value):
            return 0
        return 1 if COMPARISONS[self.op](value, self.bound) else 0

    def __str__(self) -> str:
        # repr keeps full precision, so parse(str(v)) is the identity.
        bound = int(self.bound) if self.bound == int(self.bound) else self.bound
        return f"{self.op}{bound!r}"


def weighted_outcome(outcomes: Sequence[int], weights: Sequence[float]) -> int:
    """The state's weighted linear combination Σ f_ci(Ω_i) · w_i → e ∈ Z.

    The result is rounded to the nearest integer since the model defines
    e ∈ Z; weights are typically integers anyway.
    """
    if len(outcomes) != len(weights):
        raise OutcomeError(
            f"{len(outcomes)} outcomes but {len(weights)} weights"
        )
    return round(sum(o * w for o, w in zip(outcomes, weights)))
