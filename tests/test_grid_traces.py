"""Tests for availability traces."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grid.traces import MIN_AVAILABILITY, ConstantTrace, MarkovTrace
from repro.util.rng import spawn_generator
from tests.oracles import PiecewiseTrace, mean_over


def test_constant_trace():
    t = ConstantTrace(0.5)
    assert t.value(0) == 0.5
    assert t.value(1e9) == 0.5
    assert t.next_change(0) == float("inf")
    assert mean_over(t, 0, 10) == 0.5


def test_constant_trace_bounds():
    with pytest.raises(ValueError):
        ConstantTrace(0.0)
    with pytest.raises(ValueError):
        ConstantTrace(1.5)


def test_piecewise_values_and_changes():
    t = PiecewiseTrace([0.0, 10.0, 20.0], [1.0, 0.5, 0.25])
    assert t.value(0) == 1.0
    assert t.value(9.999) == 1.0
    assert t.value(10.0) == 0.5
    assert t.value(25.0) == 0.25
    assert t.next_change(0) == 10.0
    assert t.next_change(10.0) == 20.0
    assert t.next_change(20.0) == float("inf")


def test_piecewise_lookups_equal_the_ndarray_bisection_they_replaced():
    """Same doubles as bisecting float64 arrays, on breakpoints +- 1 ulp."""
    rng = np.random.default_rng(11)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 9.0, 60))))
    levels = rng.uniform(MIN_AVAILABILITY, 1.0, times.size)
    # Sequences, ndarrays and integer breakpoints all validate as before.
    for trace in (
        PiecewiseTrace(times.tolist(), levels.tolist()),
        PiecewiseTrace(times, levels),
    ):
        probes = [-1.0, times[-1] * 2, math.inf]
        for t in times.tolist():
            probes += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
            probes.append(t + 0.5e-3)
        for t in probes:
            idx = bisect.bisect_right(times, t)
            assert trace.value(t) == float(levels[max(idx - 1, 0)])
            want = float(times[idx]) if idx < times.size else math.inf
            assert trace.next_change(t) == want
            assert type(trace.value(t)) is type(trace.next_change(t)) is float
    assert PiecewiseTrace([0, 2, 5], [1, 0.5, 1]).next_change(2) == 5.0


def test_piecewise_mean_over():
    t = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    assert mean_over(t, 0, 20) == pytest.approx(0.75)
    assert mean_over(t, 5, 15) == pytest.approx(0.75)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseTrace([1.0], [0.5])  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseTrace([0.0, 0.0], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        PiecewiseTrace([0.0], [0.0])  # below floor
    with pytest.raises(ValueError):
        PiecewiseTrace([0.0, 1.0], [0.5])  # length mismatch
    with pytest.raises(ValueError):
        PiecewiseTrace([], [])


def test_markov_trace_deterministic_per_seed():
    t1 = MarkovTrace(spawn_generator(1, "load"), mean_dwell=5.0)
    t2 = MarkovTrace(spawn_generator(1, "load"), mean_dwell=5.0)
    ts = np.linspace(0, 200, 77)
    assert [t1.value(x) for x in ts] == [t2.value(x) for x in ts]


def test_markov_trace_query_order_independent():
    t1 = MarkovTrace(spawn_generator(3, "load"), mean_dwell=5.0)
    t2 = MarkovTrace(spawn_generator(3, "load"), mean_dwell=5.0)
    # Force t2 far into the future first; values at small t must agree.
    t2.value(500.0)
    for x in [0.0, 1.0, 7.5, 33.3]:
        assert t1.value(x) == t2.value(x)


def test_markov_trace_respects_bounds():
    t = MarkovTrace(spawn_generator(2, "load"), mean_dwell=1.0, low=0.3, high=0.7)
    for x in np.linspace(0, 100, 333):
        assert 0.3 <= t.value(x) <= 0.7


def test_markov_next_change_is_strictly_after():
    t = MarkovTrace(spawn_generator(4, "load"), mean_dwell=2.0)
    x = 0.0
    for _ in range(50):
        nxt = t.next_change(x)
        assert nxt > x
        x = nxt


@given(st.floats(min_value=0, max_value=1e4), st.floats(min_value=0, max_value=1e4))
def test_property_markov_value_in_range(a, b):
    t = MarkovTrace(spawn_generator(9, "load"), mean_dwell=3.0, low=0.2, high=0.9)
    for x in (a, b):
        assert MIN_AVAILABILITY <= 0.2 <= t.value(x) <= 0.9


# ----------------------------------------------------------------------
# mean_over progress guard (regression: non-advancing next_change)
# ----------------------------------------------------------------------
class _StuckTrace(PiecewiseTrace):
    """A trace whose next_change violates its contract by not advancing.

    Simulates the duplicate-breakpoint corruption that PiecewiseTrace's
    constructor normally rejects: before the progress guard, mean_over
    looped forever on such a trace.
    """

    def __init__(self, stuck_at: float):
        super().__init__([0.0, stuck_at], [1.0, 0.5])
        self._stuck_at = stuck_at

    def next_change(self, t: float) -> float:
        if t >= self._stuck_at:
            return self._stuck_at  # <= t: contract violation
        return super().next_change(t)


def test_mean_over_raises_on_non_advancing_trace():
    t = _StuckTrace(5.0)
    with pytest.raises(RuntimeError, match="does not advance"):
        mean_over(t, 0.0, 10.0)


def test_piecewise_rejects_duplicate_breakpoints():
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseTrace([0.0, 5.0, 5.0], [1.0, 0.5, 0.25])


def test_mean_over_exact_segments_unchanged():
    t = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    assert mean_over(t, 0.0, 20.0) == pytest.approx(0.75)
    assert mean_over(t, 0.0, 10.0) == pytest.approx(1.0)
    assert mean_over(t, 10.0, 30.0) == pytest.approx(0.5)
    # Degenerate interval: the value at t0.
    assert mean_over(t, 5.0, 5.0) == 1.0


def test_mean_over_markov_terminates_and_averages():
    t = MarkovTrace(spawn_generator(5, "load"), mean_dwell=2.0, low=0.3, high=0.9)
    m = mean_over(t, 0.0, 50.0)
    assert 0.3 <= m <= 0.9
