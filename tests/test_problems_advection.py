"""Tests for the advection-diffusion waveform relaxation."""

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac
from repro.grid import homogeneous_cluster
from repro.problems.advection import AdvectionDiffusionProblem


@pytest.fixture(scope="module")
def problem():
    return AdvectionDiffusionProblem(
        24, velocity=1.0, kappa=0.01, t_end=0.3, n_steps=30
    )


def test_initial_condition_is_a_pulse(problem):
    st = problem.initial_state(0, 24)
    u0 = st.traj[:, 0]
    peak = np.argmax(u0)
    x = problem.x_grid()
    assert abs(x[peak] - problem.pulse_center) < 0.06
    assert u0[peak] > 10 * u0[-1]


def test_single_block_converges_to_reference(problem):
    st = problem.initial_state(0, 24)
    hl = problem.initial_halo(-1)
    hr = problem.initial_halo(24)
    for _ in range(500):
        res = problem.iterate(st, hl, hr)
        if res.local_residual < 1e-12:
            break
    ref = problem.reference_solution()
    assert np.max(np.abs(st.traj - ref)) < 1e-9


def test_pulse_travels_downstream(problem):
    ref = problem.reference_solution()
    x = problem.x_grid()
    start_peak = x[np.argmax(ref[:, 0])]
    end_peak = x[np.argmax(ref[:, -1])]
    assert end_peak > start_peak + 0.1  # advection moved the pulse right


def test_activity_concentrates_near_the_pulse_path(problem):
    st = problem.initial_state(0, 24)
    hl = problem.initial_halo(-1)
    hr = problem.initial_halo(24)
    for _ in range(300):
        problem.iterate(st, hl, hr)
    activity = problem.activity_profile(st)
    # Components far downstream of the pulse's reach barely move.
    assert activity.max() > 20 * (activity[-1] + 1e-12)


def test_asymmetric_coupling_left_dominates(problem):
    """Upwind: perturbing the left halo matters far more than the right."""
    base = problem.initial_state(0, 24)
    hl = problem.initial_halo(-1)
    hr = problem.initial_halo(24)
    for _ in range(300):
        problem.iterate(base, hl, hr)
    converged = base.traj.copy()

    def perturb(side):
        st = problem.initial_state(0, 24)
        st.traj = converged.copy()
        halo = np.full((1, problem.n_steps + 1), 0.1)
        if side == "left":
            res = problem.iterate(st, halo, hr)
        else:
            res = problem.iterate(st, hl, halo)
        return res.local_residual

    # Left coefficient = adv + dif = 0.3125, right = dif = 0.0625:
    # a 5x asymmetry in the immediate response.
    assert perturb("left") > 4.5 * perturb("right")


def test_parallel_solve_matches_reference(problem):
    plat = homogeneous_cluster(3, speed=5000.0)
    fresh = AdvectionDiffusionProblem(
        24, velocity=1.0, kappa=0.01, t_end=0.3, n_steps=30
    )
    r = run_aiac(fresh, plat, SolverConfig(tolerance=1e-10, max_iterations=20000))
    assert r.converged
    assert r.max_error_vs(problem.reference_solution()) < 1e-7


def test_split_merge_roundtrip(problem):
    st = problem.initial_state(0, 24)
    original = st.traj.copy()
    payload = problem.split(st, 7, "right")
    problem.merge(st, payload, "right")
    assert np.array_equal(st.traj, original)


def test_validation():
    with pytest.raises(ValueError):
        AdvectionDiffusionProblem(0)
    with pytest.raises(ValueError):
        AdvectionDiffusionProblem(10, kappa=0.0)
    with pytest.raises(ValueError):
        AdvectionDiffusionProblem(10, velocity=-1.0)


def test_pure_diffusion_limit_is_symmetric():
    p = AdvectionDiffusionProblem(16, velocity=0.0, kappa=0.05, t_end=0.1, n_steps=20)
    assert p.adv == 0.0
    st = p.initial_state(0, 16)
    for _ in range(400):
        res = p.iterate(st, p.initial_halo(-1), p.initial_halo(16))
    assert res.local_residual < 1e-12
    assert np.max(np.abs(st.traj - p.reference_solution())) < 1e-9

def test_iterate_bit_identical_to_step_loop():
    """The padded-buffer sweep against the step loop it replaced."""
    problem = AdvectionDiffusionProblem(n_points=40, n_steps=12)
    rng = np.random.default_rng(3)
    left_coeff = problem.adv + problem.dif
    denom = 1.0 + problem.adv + 2.0 * problem.dif
    for n_local in (1, 2, 5, 9):
        state = problem.initial_state(4, 4 + n_local)
        state.traj = old = rng.normal(size=state.traj.shape)
        left = rng.normal(size=(1, problem.n_steps + 1))
        right = rng.normal(size=problem.n_steps + 1)
        u_left = np.vstack([left, old[:-1]])
        u_right = np.vstack([old[1:], right[None, :]])
        want = np.empty_like(old)
        want[:, 0] = old[:, 0]
        for k in range(1, problem.n_steps + 1):
            want[:, k] = (
                want[:, k - 1] + left_coeff * u_left[:, k] + problem.dif * u_right[:, k]
            ) / denom
        result = problem.iterate(state, left, right)
        assert state.traj.tobytes() == want.tobytes()
        assert result.residuals.tobytes() == np.max(np.abs(want - old), axis=1).tobytes()
