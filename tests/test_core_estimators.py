"""Tests for load estimators."""

import pytest

from repro.core.estimators import (
    ComponentCountEstimator,
    IterationTimeEstimator,
    ResidualEstimator,
    make_estimator,
    surplus_fraction,
)


def test_residual_estimator_l2_tracks_mass():
    e = ResidualEstimator(norm="l2")
    assert e.value() == float("inf")  # no sweep yet
    e.update(residual=0.5, residual_l2=2.5, sweep_duration=1.0, n_local=10)
    assert e.value() == 2.5
    e.update(residual=0.1, residual_l2=0.4, sweep_duration=2.0, n_local=10)
    assert e.value() == 0.4


def test_residual_estimator_max_tracks_worst_component():
    e = ResidualEstimator(norm="max")
    e.update(residual=0.5, residual_l2=2.5, sweep_duration=1.0, n_local=10)
    assert e.value() == 0.5


def test_residual_estimator_norm_validation():
    with pytest.raises(ValueError):
        ResidualEstimator(norm="l7")


def test_iteration_time_estimator_windows():
    e = IterationTimeEstimator(window=3)
    assert e.value() == float("inf")
    for d in [1.0, 2.0, 3.0]:
        e.update(0.0, 0.0, d, 10)
    assert e.value() == pytest.approx(2.0)
    e.update(0.0, 0.0, 6.0, 10)  # evicts 1.0 -> mean(2, 3, 6)
    assert e.value() == pytest.approx(11.0 / 3.0)


def test_iteration_time_window_validation():
    with pytest.raises(ValueError):
        IterationTimeEstimator(window=0)


def test_component_count_estimator():
    e = ComponentCountEstimator()
    e.update(0.0, 0.0, 0.0, 42)
    assert e.value() == 42.0


def test_factory():
    assert isinstance(make_estimator("residual"), ResidualEstimator)
    assert make_estimator("residual").norm == "l2"
    assert make_estimator("residual_max").norm == "max"
    assert isinstance(make_estimator("iteration_time"), IterationTimeEstimator)
    assert isinstance(make_estimator("component_count"), ComponentCountEstimator)
    with pytest.raises(ValueError):
        make_estimator("nope")


@pytest.mark.parametrize(
    "mine, theirs, expected",
    [
        (1.0, 1.0, 0.0),
        (2.0, 1.0, 0.0),  # at the threshold ratio: still balanced
        (1.0, 3.0, 0.0),  # lighter than the neighbour
        (3.0, 1.0, 2.0 / 3.0),
        (3.0, 0.0, 1.0),  # the neighbour holds nothing
        (3.0, 5e-324, 1.0),  # denormal: the ratio overflows
    ],
)
def test_surplus_fraction(mine, theirs, expected):
    assert surplus_fraction(mine, theirs, 2.0) == pytest.approx(expected)


def test_surplus_fraction_grows_with_the_ratio():
    fractions = [surplus_fraction(r, 1.0, 1.2) for r in (1.0, 1.3, 2.0, 10.0, 1e9)]
    assert fractions == sorted(fractions)
    assert fractions[0] == 0.0 < fractions[1] and fractions[-1] < 1.0
