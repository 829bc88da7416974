"""Tests for Host work/time conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.host import Host
from repro.grid.traces import ConstantTrace, MarkovTrace
from repro.util.rng import spawn_generator
from tests.oracles import PiecewiseTrace, duration_for_work_reference, work_capacity


def test_dedicated_host_duration_is_work_over_speed():
    h = Host("h", speed=100.0)
    assert h.duration_for_work(250.0, 0.0) == pytest.approx(2.5)
    assert h.duration_for_work(250.0, 123.0) == pytest.approx(2.5)


def test_zero_work_zero_duration():
    h = Host("h", speed=100.0)
    assert h.duration_for_work(0.0, 5.0) == 0.0


def test_negative_work_rejected():
    h = Host("h", speed=100.0)
    with pytest.raises(ValueError):
        h.duration_for_work(-1.0, 0.0)


def test_speed_must_be_positive():
    with pytest.raises(ValueError):
        Host("h", speed=0.0)


def test_duration_crosses_trace_segments():
    # Availability 1.0 for t<10, then 0.5: 100 wu/s then 50 wu/s.
    trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    h = Host("h", speed=100.0, trace=trace)
    # 1000 wu in the first segment takes exactly 10 s.
    assert h.duration_for_work(1000.0, 0.0) == pytest.approx(10.0)
    # 1500 wu: 1000 in the first 10 s, then 500 at 50 wu/s = 10 s more.
    assert h.duration_for_work(1500.0, 0.0) == pytest.approx(20.0)
    # Starting inside the slow segment.
    assert h.duration_for_work(100.0, 15.0) == pytest.approx(2.0)


def test_effective_speed():
    trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.25])
    h = Host("h", speed=200.0, trace=trace)
    assert h.speed * h.trace.value(5.0) == 200.0
    assert h.speed * h.trace.value(10.0) == 50.0


def test_work_capacity_matches_duration_inverse_simple():
    trace = PiecewiseTrace([0.0, 4.0, 8.0], [1.0, 0.5, 1.0])
    h = Host("h", speed=10.0, trace=trace)
    d = h.duration_for_work(100.0, 1.0)
    assert work_capacity(h, 1.0, 1.0 + d) == pytest.approx(100.0)


@settings(max_examples=50, deadline=None)
@given(
    work=st.floats(min_value=1e-3, max_value=1e5),
    t0=st.floats(min_value=0.0, max_value=1e3),
    seed=st.integers(0, 10),
)
def test_property_duration_inverts_capacity(work, t0, seed):
    """work_capacity(t0, t0 + duration_for_work(w)) == w on any trace."""
    trace = MarkovTrace(spawn_generator(seed, "h"), mean_dwell=3.0, low=0.1, high=1.0)
    h = Host("h", speed=123.0, trace=trace)
    d = h.duration_for_work(work, t0)
    assert d > 0
    # Tolerances allow float cancellation when t0 >> duration.
    assert work_capacity(h, t0, t0 + d) == pytest.approx(work, rel=1e-6, abs=1e-9)


def test_work_capacity_empty_interval():
    h = Host("h", speed=10.0)
    assert work_capacity(h, 5.0, 5.0) == 0.0
    assert work_capacity(h, 5.0, 4.0) == 0.0


def test_constant_trace_capacity():
    h = Host("h", speed=10.0, trace=ConstantTrace(0.5))
    assert work_capacity(h, 0.0, 10.0) == pytest.approx(50.0)


def _walk_trace(kind, seed):
    """A trace of short segments (a second or less at full speed, in
    the main): a Markov trace, or 400 scripted breakpoints."""
    if kind == "markov":
        return MarkovTrace(spawn_generator(seed, "walk"), mean_dwell=0.5, low=0.1)
    rng = np.random.default_rng(seed)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, 400))))
    return PiecewiseTrace(times, rng.uniform(0.1, 1.0, times.size))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["markov", "piecewise"]),
    seed=st.integers(0, 50),
    speed=st.sampled_from([0.7, 1.0, 3.3, 123.0]),
    work=st.one_of(st.floats(min_value=1e-3, max_value=5.0), st.floats(20.0, 60.0)),
    start=st.floats(min_value=0.0, max_value=250.0),
    on_breakpoint=st.booleans(),
)
def test_property_duration_walk_equals_the_two_query_reference(
    kind, seed, speed, work, start, on_breakpoint
):
    """One segment lookup per step returns, bit for bit, what two queries
    per step did: from a breakpoint or between two, into the endless last
    segment of a scripted trace or not, and across 10+ segments when the
    walk is 20+ seconds of full speed and ends before the last one."""
    probe = _walk_trace(kind, seed)
    t0 = min(probe.segment(start)[1], probe._times[-1]) if on_breakpoint else start
    host = Host("h", speed=speed, trace=_walk_trace(kind, seed))
    d = host.duration_for_work(work * speed, t0)
    reference = Host("h", speed=speed, trace=_walk_trace(kind, seed))
    assert d == duration_for_work_reference(reference, work * speed, t0)
    if work >= 20.0 and t0 + d < host.trace._times[-1]:
        crossed = [b for b in host.trace._times if t0 < b < t0 + d]
        assert len(crossed) >= 10
