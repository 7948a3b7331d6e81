"""Unit tests for thresholds, ranges, output mappings, validators."""

import pytest

from repro.core import OutcomeError, OutputMapping, ThresholdRanges, Validator, weighted_outcome


# -- ThresholdRanges -----------------------------------------------------------


def test_thresholds_form_n_plus_one_ranges():
    ranges = ThresholdRanges((2.0, 4.0))
    assert ranges.range_count == 3


def test_index_of_respects_half_open_ranges():
    # Paper: thresholds ⟨2, 4⟩ form -inf < x <= 2, 2 < x <= 4, 4 < x <= inf.
    ranges = ThresholdRanges((2.0, 4.0))
    assert ranges.index_of(-10) == 0
    assert ranges.index_of(2) == 0
    assert ranges.index_of(2.1) == 1
    assert ranges.index_of(4) == 1
    assert ranges.index_of(4.001) == 2


def test_empty_thresholds_single_range():
    ranges = ThresholdRanges(())
    assert ranges.range_count == 1
    assert ranges.index_of(-1e9) == 0
    assert ranges.index_of(1e9) == 0


def test_thresholds_must_strictly_increase():
    with pytest.raises(OutcomeError):
        ThresholdRanges((3.0, 3.0))
    with pytest.raises(OutcomeError):
        ThresholdRanges((5.0, 1.0))


def test_thresholds_must_be_finite():
    # NaN defeats ordering comparisons (nan >= x is always False), so the
    # sortedness check alone would accept ⟨nan, 1⟩ and make index_of
    # unstable; the explicit finiteness check must reject it first.
    with pytest.raises(OutcomeError):
        ThresholdRanges((float("nan"), 1.0))
    with pytest.raises(OutcomeError):
        ThresholdRanges((float("nan"),))
    with pytest.raises(OutcomeError):
        ThresholdRanges((float("inf"),))


def test_duplicate_and_unsorted_thresholds_have_distinct_errors():
    with pytest.raises(OutcomeError, match="duplicate threshold"):
        ThresholdRanges((3.0, 3.0))
    with pytest.raises(OutcomeError, match="strictly increasing"):
        ThresholdRanges((5.0, 1.0))


def test_describe_ranges():
    ranges = ThresholdRanges((2.0, 4.0))
    assert ranges.describe(0) == "(-inf, 2.0]"
    assert ranges.describe(1) == "(2.0, 4.0]"
    assert ranges.describe(2) == "(4.0, +inf)"
    assert ThresholdRanges(()).describe(0) == "(-inf, +inf)"
    with pytest.raises(OutcomeError):
        ranges.describe(3)


# -- OutputMapping -------------------------------------------------------------


def test_paper_example_mapping():
    # Thresholds 75/95 with mappings (-inf,75,-5), (75,95,4), (95,inf,5).
    mapping = OutputMapping.from_pairs([75, 95], [-5, 4, 5])
    assert mapping.map(60) == -5
    assert mapping.map(75) == -5
    assert mapping.map(80) == 4
    assert mapping.map(95) == 4
    assert mapping.map(96) == 5


def test_mapping_requires_matching_result_count():
    with pytest.raises(OutcomeError):
        OutputMapping.from_pairs([75, 95], [1, 2])


def test_boolean_mapping_requires_full_threshold():
    # Simplified DSL: threshold 12 of 12 executions -> pass only at 12.
    mapping = OutputMapping.boolean(12)
    assert mapping.map(12) == 1
    assert mapping.map(11) == 0
    assert mapping.map(0) == 0


def test_boolean_mapping_custom_values():
    mapping = OutputMapping.boolean(5, success=10, failure=-10)
    assert mapping.map(5) == 10
    assert mapping.map(4) == -10


# -- Validator -----------------------------------------------------------------


@pytest.mark.parametrize(
    "expression,value,expected",
    [
        ("<5", 4.9, 1),
        ("<5", 5.0, 0),
        ("<=5", 5.0, 1),
        (">150", 151, 1),
        (">150", 150, 0),
        (">=0.99", 0.99, 1),
        ("==3", 3.0, 1),
        ("==3", 3.1, 0),
        ("!=3", 4, 1),
        ("< 5", 4, 1),  # whitespace tolerated
        ("<-2", -3, 1),  # negative bounds
    ],
)
def test_validator_comparisons(expression, value, expected):
    assert Validator.parse(expression).check(value) == expected


def test_validator_none_always_fails():
    assert Validator.parse("<5").check(None) == 0


def test_validator_nan_always_fails():
    assert Validator.parse("<5").check(float("nan")) == 0


def test_validator_rejects_garbage():
    for bad in ["", "5", "<<5", "< five", "=5", "<5 extra", "<1e309", ">=-1e309"]:
        with pytest.raises(OutcomeError):
            Validator.parse(bad)


def test_validator_str():
    assert str(Validator.parse("< 5")) == "<5"


# -- weighted_outcome -----------------------------------------------------------


def test_weighted_outcome_linear_combination():
    assert weighted_outcome([4, 5, -5], [1.0, 1.0, 1.0]) == 4
    assert weighted_outcome([1, 0], [3.0, 10.0]) == 3


def test_weighted_outcome_rounds_to_int():
    assert weighted_outcome([1, 1], [0.5, 0.2]) == 1  # 0.7 -> 1
    assert weighted_outcome([1], [0.4]) == 0


def test_weighted_outcome_length_mismatch():
    with pytest.raises(OutcomeError):
        weighted_outcome([1, 2], [1.0])
