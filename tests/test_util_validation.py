"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_disjoint_intervals,
    check_in_range,
    check_non_negative,
    check_positive,
)


def test_check_positive_accepts_and_returns():
    assert check_positive("x", 1.5) == 1.5


@pytest.mark.parametrize("bad", [0, -1, -0.5, float("nan")])
def test_check_positive_rejects(bad):
    with pytest.raises(ValueError, match="x"):
        check_positive("x", bad)


def test_check_non_negative():
    assert check_non_negative("x", 0) == 0
    with pytest.raises(ValueError):
        check_non_negative("x", -1e-12)


def test_check_in_range_inclusive_bounds():
    assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
    assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        check_in_range("x", 2.0001, 1.0, 2.0)


def test_check_in_range_exclusive():
    with pytest.raises(ValueError):
        check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)
    assert check_in_range("x", 1.5, 1.0, 2.0, inclusive=False) == 1.5


def test_check_disjoint_intervals_sorts_and_accepts():
    assert check_disjoint_intervals("w", [(5.0, 6.0), (1.0, 2.0)]) == [
        (1.0, 2.0),
        (5.0, 6.0),
    ]
    assert check_disjoint_intervals("w", []) == []
    assert check_disjoint_intervals("w", [(0.0, 1.0)]) == [(0.0, 1.0)]


def test_check_disjoint_intervals_rejects_overlap_and_touch():
    with pytest.raises(ValueError, match="overlap"):
        check_disjoint_intervals("w", [(1.0, 3.0), (2.0, 4.0)])
    # Touching endpoints are ambiguous (no defined event order).
    with pytest.raises(ValueError, match="overlap"):
        check_disjoint_intervals("w", [(1.0, 2.0), (2.0, 3.0)])
