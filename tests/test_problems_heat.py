"""Tests for the heat-equation waveform relaxation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.heat import HeatProblem
from tests.conftest import SWEEP_PATHS, force_sweep_path


@pytest.fixture(scope="module")
def problem():
    return HeatProblem(n_points=15, kappa=1.0, t_end=0.05, n_steps=25)


def test_initial_state(problem):
    st = problem.initial_state(0, 15)
    assert st.traj.shape == (15, 26)
    x = problem.x_grid()
    assert np.allclose(st.traj[:, 0], np.sin(np.pi * x))


def test_single_block_converges_to_reference(problem):
    st = problem.initial_state(0, 15)
    hl = problem.initial_halo(-1)
    hr = problem.initial_halo(15)
    for _ in range(300):
        res = problem.iterate(st, hl, hr)
        if res.local_residual < 1e-12:
            break
    ref = problem.reference_solution()
    assert np.max(np.abs(st.traj - ref)) < 1e-9


def test_reference_close_to_analytic():
    # Fine grids: discrete solution approaches the analytic one.
    p = HeatProblem(n_points=60, t_end=0.02, n_steps=400)
    ref = p.reference_solution()
    # exp(-κ π² t) sin(π x) on the discrete grid.
    t = np.linspace(0.0, p.t_end, p.n_steps + 1)
    exact = np.exp(-p.kappa * np.pi**2 * t)[None, :] * np.sin(np.pi * p.x_grid())[:, None]
    assert np.max(np.abs(ref - exact)) < 5e-3


def test_two_blocks_converge(problem):
    a = problem.initial_state(0, 8)
    b = problem.initial_state(8, 15)
    for _ in range(400):
        res_a = problem.iterate(
            a, problem.initial_halo(-1), problem.halo_out(b, "left")
        )
        res_b = problem.iterate(
            b, problem.halo_out(a, "right"), problem.initial_halo(15)
        )
        if max(res_a.local_residual, res_b.local_residual) < 1e-12:
            break
    ref = problem.reference_solution()
    assembled = np.concatenate([a.traj, b.traj], axis=0)
    assert np.max(np.abs(assembled - ref)) < 1e-9


def test_constant_work(problem):
    st = problem.initial_state(0, 15)
    res = problem.iterate(st, problem.initial_halo(-1), problem.initial_halo(15))
    assert np.all(res.work == problem.n_steps)


def test_split_merge_roundtrip(problem):
    st = problem.initial_state(0, 15)
    original = st.traj.copy()
    payload = problem.split(st, 6, "left")
    problem.merge(st, payload, "left")
    assert np.array_equal(st.traj, original)
    assert st.lo == 0


def test_merge_validates_shape(problem):
    st = problem.initial_state(0, 15)
    with pytest.raises(ValueError):
        problem.merge(st, np.zeros((2, 3)), "left")


def _iterate_reference(problem, old, left_halo, right_halo):
    """The step loop as it was written before the padded buffer."""
    dt, c = problem.dt, problem.c
    u_left = np.vstack([np.atleast_2d(left_halo), old[:-1]])
    u_right = np.vstack([old[1:], np.atleast_2d(right_halo)])
    new = np.empty_like(old)
    new[:, 0] = old[:, 0]
    denom = 1.0 + 2.0 * c * dt
    with np.errstate(over="ignore"):
        for k in range(1, problem.n_steps + 1):
            new[:, k] = (
                new[:, k - 1] + c * dt * (u_left[:, k] + u_right[:, k])
            ) / denom
    return new, np.max(np.abs(new - old), axis=1)


def _bits(x):
    return struct.pack("d", x)


@pytest.mark.parametrize(
    "n_local, n_steps",
    [
        # id: the block size, plus the step count unless it is the
        # 8 steps of the benchmark's heat workload
        pytest.param(n, s, id=str(n) if s == 8 else f"{n}-{s}")
        for s in (8, 50)
        for n in range(1, 17)
    ],
)
def test_iterate_bit_identical_to_step_loop(monkeypatch, n_local, n_steps):
    problem = HeatProblem(n_points=32, t_end=0.05, n_steps=n_steps)
    shapes = [(1, n_steps + 1), (n_steps + 1,)]  # 1-D halos are accepted
    for path in SWEEP_PATHS:
        force_sweep_path(monkeypatch, path)
        rng = np.random.default_rng([n_local, n_steps])
        for trial in range(20):
            state = problem.initial_state(3, 3 + n_local)
            state.traj = rng.normal(size=state.traj.shape)
            left = rng.normal(size=shapes[trial % 2])
            right = rng.normal(size=shapes[trial // 2 % 2])
            if trial % 4 == 3:
                # A corrupted state: the sweep overflows to inf, silently.
                state.traj[0, 2] = 1e308
                left.reshape(-1)[3] = 1.7e308
            elif trial % 4 == 1:
                # NaN in the state (now and then at a row's step 0) and in
                # both halos.  One NaN only: the payload of a NaN made from
                # two different NaNs depends on operand order, which NumPy's
                # vector body and scalar tail do not even agree on.
                rows = rng.integers(0, n_local, 2)
                state.traj[rows, rng.integers(0, n_steps + 1, 2)] = np.nan
                left.reshape(-1)[rng.integers(1, n_steps + 1)] = np.nan
                right.reshape(-1)[rng.integers(1, n_steps + 1)] = np.nan
            want_traj, want_res = _iterate_reference(problem, state.traj, left, right)
            want_work = np.full(n_local, float(n_steps))
            result = problem.iterate(state, left, right)
            assert state.traj.tobytes() == want_traj.tobytes()
            assert result.residuals.tobytes() == want_res.tobytes()
            assert result.work.tobytes() == want_work.tobytes()
            assert _bits(result.local_residual) == _bits(float(want_res.max()))
            assert _bits(result.total_work) == _bits(float(want_work.sum()))
        assert not np.isfinite(want_traj).all()  # the last trial did overflow


#: The NaN this machine's arithmetic makes (``inf - inf``).  A NaN drawn
#: into the state or a halo carries that payload, so where two NaNs meet,
#: the operand order — which the compiled loop and NumPy's vector body
#: need not share — cannot show in the bits.
MACHINE_NAN = float("inf") - float("inf")
SPECIAL = np.array([0.0, -0.0, MACHINE_NAN, np.inf, -np.inf])


@settings(max_examples=150, deadline=None)
@given(
    # Small blocks as often as larger ones, up to 300.
    n=st.one_of(st.integers(1, 20), st.integers(1, 300)),
    n_steps=st.integers(1, 12),
    flat_halos=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_sweep_paths_agree_bitwise(n, n_steps, flat_halos, seed):
    problem = HeatProblem(n_points=n + 4, t_end=0.05, n_steps=n_steps)
    rng = np.random.default_rng(seed)
    traj = rng.normal(size=(n, n_steps + 1))
    halos = rng.normal(size=(2, n_steps + 1))
    for values in (traj.reshape(-1), halos.reshape(-1)):
        special = rng.random(values.size) < 0.05
        values[special] = rng.choice(SPECIAL, int(special.sum()))
    left, right = (halos[0], halos[1]) if flat_halos else (halos[:1], halos[1:])
    traces = {}
    for path in SWEEP_PATHS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_sweep_path(monkeypatch, path)
            state = problem.initial_state(2, 2 + n)
            state.traj = traj.copy()
            with np.errstate(all="ignore"):
                result = problem.iterate(state, left, right)
        traces[path] = (
            state.traj.tobytes(),
            result.residuals.tobytes(),
            result.work.tobytes(),
            _bits(result.local_residual),
            _bits(result.total_work),
            type(result.local_residual),
        )
    assert traces["compiled"] == traces["python"]
