"""Tests for the synthetic contraction problem."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.synthetic import SyntheticProblem
from tests.conftest import SWEEP_PATHS, force_sweep_path


def make_problem(n=20, **kw):
    return SyntheticProblem.with_hard_region(n, **kw)


def relax(problem, state, sweeps):
    hl = problem.initial_halo(state.lo - 1)
    hr = problem.initial_halo(state.lo + state.n)
    res = None
    for _ in range(sweeps):
        res = problem.iterate(state, hl, hr)
    return res


def test_rates_validation():
    with pytest.raises(ValueError):
        SyntheticProblem(np.array([1.0]))  # rate must be < 1
    with pytest.raises(ValueError):
        SyntheticProblem(np.array([-0.1]))
    with pytest.raises(ValueError):
        SyntheticProblem(np.array([]))
    with pytest.raises(ValueError):
        SyntheticProblem(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        SyntheticProblem(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        SyntheticProblem.with_hard_region(10, hard_rate=np.nan)
    with pytest.raises(ValueError):
        SyntheticProblem(np.array([0.5]), active_cost=np.nan)


def test_hard_region_rates():
    p = make_problem(10, easy_rate=0.3, hard_rate=0.9, region=(0.4, 0.6))
    assert p.rates.min() == 0.3
    assert p.rates.max() == 0.9
    assert (p.rates == 0.9).sum() == 2  # indices 4, 5 of 10


def test_hard_region_validation():
    with pytest.raises(ValueError):
        SyntheticProblem.with_hard_region(10, region=(0.8, 0.2))


def test_error_contracts_every_sweep():
    p = make_problem(16)
    state = p.initial_state(0, 16)
    prev = state.traj.copy()
    for _ in range(10):
        p.iterate(state, np.zeros(1), np.zeros(1))
        assert np.all(state.traj <= prev + 1e-15)
        prev = state.traj.copy()


def test_converges_to_zero_fixed_point():
    p = make_problem(16, hard_rate=0.8)
    state = p.initial_state(0, 16)
    res = relax(p, state, 200)
    assert res.local_residual < 1e-10


def test_hard_region_converges_last():
    p = make_problem(20, easy_rate=0.2, hard_rate=0.95, region=(0.4, 0.6))
    state = p.initial_state(0, 20)
    relax(p, state, 30)
    hard = p.rates >= 0.95
    assert state.traj[hard].min() > state.traj[~hard].max()


def test_active_components_cost_more():
    p = make_problem(10, base_cost=1.0)
    p_state = p.initial_state(0, 10)
    first = p.iterate(p_state, np.zeros(1), np.zeros(1))
    assert np.all(first.work == 1.0 + p.active_cost)  # all active initially
    relax(p, p_state, 500)
    final = p.iterate(p_state, np.zeros(1), np.zeros(1))
    assert np.all(final.work == 1.0)  # all converged: base cost only


def test_coupling_pulls_error_from_neighbours():
    p = SyntheticProblem(np.full(5, 0.1), coupling=0.9)
    state = p.initial_state(0, 5)
    state.traj[:] = 0.0
    state.traj[2] = 1.0
    p.iterate(state, np.zeros(1), np.zeros(1))
    # Components 1 and 3 absorbed 0.9 * neighbour error.
    assert state.traj[1] == pytest.approx(0.9)
    assert state.traj[3] == pytest.approx(0.9)


def test_split_merge_roundtrip():
    p = make_problem(12)
    state = p.initial_state(0, 12)
    state.traj[:] = np.arange(12, dtype=float) / 100 + 0.001
    original = state.traj.copy()
    payload = p.split(state, 5, "right")
    assert state.n == 7
    p.merge(state, payload, "right")
    assert np.array_equal(state.traj, original)
    payload = p.split(state, 3, "left")
    assert state.lo == 3
    p.merge(state, payload, "left")
    assert state.lo == 0
    assert np.array_equal(state.traj, original)


def test_rates_follow_components_after_migration():
    """After a split, the remaining block iterates with its own global rates."""
    p = make_problem(10, easy_rate=0.5, hard_rate=0.9, region=(0.0, 0.3))
    state = p.initial_state(0, 10)
    p.split(state, 3, "left")  # drop the hard region
    assert state.lo == 3
    res = p.iterate(state, np.full(1, 1.0), np.zeros(1))
    # All remaining components contract at the easy rate (max neighbour
    # coupling could dominate; use tiny coupling to isolate).
    p2 = SyntheticProblem(p.rates, coupling=0.0)
    st2 = p2.initial_state(3, 10)
    p2.iterate(st2, np.zeros(1), np.zeros(1))
    assert np.allclose(st2.traj, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 40),
    coupling=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(0, 100),
)
def test_property_max_norm_contraction(n, coupling, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 0.95, n)
    p = SyntheticProblem(rates, coupling=coupling)
    state = p.initial_state(0, n)
    factor = max(rates.max(), coupling)
    before = state.traj.max()
    p.iterate(state, np.zeros(1), np.zeros(1))
    assert state.traj.max() <= factor * before + 1e-15


def _iterate_by_concatenation(problem, state, left_halo, right_halo):
    """``SyntheticProblem.iterate`` as it was written before it took its
    neighbours from the ``padded`` buffer: the reference the buffer
    formulation must match bit for bit."""
    e = state.traj
    rates = problem.rates[state.lo : state.lo + state.n]
    e_left = np.concatenate([np.atleast_1d(left_halo), e[:-1]])
    e_right = np.concatenate([e[1:], np.atleast_1d(right_halo)])
    new = np.maximum(rates * e, problem.coupling * np.maximum(e_left, e_right))
    work = np.full(state.n, problem.base_cost)
    work[e > problem.active_threshold] += problem.active_cost
    state.traj = new
    return new.copy(), work


def _bits(x):
    return struct.pack("d", x)


#: Non-finite and signed-zero values drawn into the errors and the halos:
#: NaN with four sign / payload patterns, ±inf, ±0.0.  A synthetic sweep
#: only *selects* between NaNs (``max``), it never adds two, so every
#: payload must come out where the array formulation puts it.
SPECIAL = np.array(
    [
        np.nan,
        -np.nan,
        struct.unpack("d", struct.pack("Q", 0x7FF8000000000123))[0],
        struct.unpack("d", struct.pack("Q", 0xFFF8000000000456))[0],
        np.inf,
        -np.inf,
        0.0,
        -0.0,
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    lo=st.integers(0, 8),
    scalar_halos=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_iterate_matches_the_concatenate_formulation_bitwise(
    n, lo, scalar_halos, seed
):
    rng = np.random.default_rng(seed)
    threshold = 1e-4
    p = SyntheticProblem(
        rng.uniform(0.0, 0.99, lo + n),
        coupling=float(rng.uniform(0.0, 0.9)),
        active_threshold=threshold,
        base_cost=float(rng.uniform(0.5, 2.0)),
        active_cost=float(rng.uniform(0.0, 30.0)),
    )
    # Errors on both sides of (and exactly at) the activity threshold.
    e = threshold * 10.0 ** rng.uniform(-3.0, 3.0, n)
    e[rng.random(n) < 0.2] = threshold
    halos = threshold * 10.0 ** rng.uniform(-3.0, 3.0, 2)
    # Negative values, NaN, ±inf and ±0.0 in the errors and both halos;
    # now and then a block of signed zeros only, whose max is a tie.
    for values in (e, halos):
        values[rng.random(values.size) < 0.2] *= -1.0
        special = rng.random(values.size) < 0.15
        values[special] = rng.choice(SPECIAL, int(special.sum()))
    if rng.random() < 0.15:
        e = rng.choice(SPECIAL[-2:], n)
    left, right = (
        (float(halos[0]), float(halos[1]))
        if scalar_halos
        else (halos[:1].copy(), halos[1:].copy())
    )
    for path in SWEEP_PATHS:
        state, reference = p.initial_state(lo, lo + n), p.initial_state(lo, lo + n)
        state.traj, reference.traj = e.copy(), e.copy()
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_sweep_path(monkeypatch, path)
            for _ in range(3):
                result = p.iterate(state, left, right)
                ref_residuals, ref_work = _iterate_by_concatenation(
                    p, reference, left, right
                )
                assert state.traj.tobytes() == reference.traj.tobytes()
                assert result.residuals.tobytes() == ref_residuals.tobytes()
                assert result.work.tobytes() == ref_work.tobytes()
                assert _bits(result.local_residual) == _bits(
                    float(ref_residuals.max())
                )
                assert _bits(result.total_work) == _bits(float(ref_work.sum()))
                assert result.residuals is not state.traj
                assert not np.shares_memory(result.residuals, state.traj)


@settings(max_examples=200, deadline=None)
@given(
    # Each side of NumPy's pairwise-sum regimes (in order below 8, eight
    # partial sums up to 128, halved above), and blocks up to 300.
    n=st.one_of(
        st.sampled_from([7, 8, 9, 24, 25, 127, 128, 129, 255, 256, 257]),
        st.integers(1, 300),
    ),
    scalar_halos=st.booleans(),
    # A cost of 2**53 swallows a later unit cost in a partial sum: a
    # work sum in any other order than NumPy's shows.
    huge_cost=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_sweep_paths_agree_bitwise(n, scalar_halos, huge_cost, seed):
    rng = np.random.default_rng(seed)
    threshold = 1e-4
    p = SyntheticProblem(
        rng.uniform(0.0, 0.99, n + 3),
        coupling=float(rng.uniform(0.0, 0.9)),
        active_threshold=threshold,
        base_cost=1.0 if huge_cost else float(rng.uniform(0.5, 2.0)),
        active_cost=2.0**53 if huge_cost else float(rng.uniform(0.0, 30.0)),
    )
    e = threshold * 10.0 ** rng.uniform(-3.0, 3.0, n)
    halos = threshold * 10.0 ** rng.uniform(-3.0, 3.0, 2)
    for values in (e, halos):
        special = rng.random(values.size) < 0.1
        values[special] = rng.choice(SPECIAL, int(special.sum()))
    if rng.random() < 0.1:
        e = rng.choice(SPECIAL[-2:], n)
    left, right = (
        (float(halos[0]), float(halos[1]))
        if scalar_halos
        else (halos[:1].copy(), halos[1:].copy())
    )
    traces = {}
    for path in SWEEP_PATHS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_sweep_path(monkeypatch, path)
            state = p.initial_state(3, 3 + n)
            state.traj = e.copy()
            result = p.iterate(state, left, right)
        traces[path] = (
            state.traj.tobytes(),
            result.residuals.tobytes(),
            result.work.tobytes(),
            _bits(result.local_residual),
            _bits(result.total_work),
            type(result.local_residual),
            type(result.total_work),
        )
    assert traces["compiled"] == traces["python"]
