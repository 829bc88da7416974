"""Tests for the Brusselator waveform-relaxation problem.

The central correctness property: repeated `iterate` sweeps (sequential,
one or two blocks) converge to the fully-coupled implicit Euler
reference solution on the same grid.
"""

import hashlib

import numpy as np
import pytest

from repro.problems.brusselator import (
    BrusselatorProblem,
    U_BOUNDARY,
    V_BOUNDARY,
)
from repro.workloads import Table1Scenario
from tests.conftest import SWEEP_PATHS, force_sweep_path


@pytest.fixture(scope="module")
def small_problem():
    return BrusselatorProblem(n_points=12, t_end=2.0, n_steps=20)


def sweep_to_convergence(problem, states, tol=1e-8, max_sweeps=400):
    """Jacobi sweeps over a list of adjacent blocks until residual < tol."""
    n_blocks = len(states)
    for sweep in range(max_sweeps):
        halos_left = []
        halos_right = []
        for i, st in enumerate(states):
            if i == 0:
                halos_left.append(problem.initial_halo(-1))
            else:
                halos_left.append(problem.halo_out(states[i - 1], "right"))
            if i == n_blocks - 1:
                halos_right.append(problem.initial_halo(problem.n_components))
            else:
                halos_right.append(problem.halo_out(states[i + 1], "left"))
        max_res = 0.0
        for st, hl, hr in zip(states, halos_left, halos_right):
            res = problem.iterate(st, hl, hr)
            max_res = max(max_res, res.local_residual)
        if max_res < tol:
            return sweep + 1
    raise AssertionError(f"did not converge in {max_sweeps} sweeps (res={max_res})")


def test_initial_state_shape_and_values(small_problem):
    p = small_problem
    st = p.initial_state(0, p.n_components)
    assert st.traj.shape == (12, 2, 21)
    # v starts at 3 everywhere; u at 1 + sin(2 pi x).
    assert np.allclose(st.traj[:, 1, :], 3.0)
    x = (np.arange(12) + 1) / 13
    assert np.allclose(st.traj[:, 0, 0], 1 + np.sin(2 * np.pi * x))
    # Trajectory guess is constant in time.
    assert np.allclose(st.traj[:, 0, 5], st.traj[:, 0, 0])


def test_invalid_block_rejected(small_problem):
    with pytest.raises(ValueError):
        small_problem.initial_state(5, 5)
    with pytest.raises(ValueError):
        small_problem.initial_state(-1, 5)
    with pytest.raises(ValueError):
        small_problem.initial_state(0, 99)


def test_edge_halos_are_boundary_conditions(small_problem):
    p = small_problem
    left = p.initial_halo(-1)
    right = p.initial_halo(p.n_components)
    assert np.allclose(left[0], U_BOUNDARY)
    assert np.allclose(left[1], V_BOUNDARY)
    assert np.allclose(right[0], U_BOUNDARY)


def test_single_block_converges_to_reference(small_problem, scipy_banded):
    p = small_problem
    st = p.initial_state(0, p.n_components)
    sweeps = sweep_to_convergence(p, [st], tol=1e-9)
    assert sweeps > 1  # it is a genuine iteration, not a direct solve
    ref = p.reference_solution()
    assert np.max(np.abs(st.traj - ref)) < 1e-6


def test_two_blocks_converge_to_reference(small_problem, scipy_banded):
    p = small_problem
    states = [p.initial_state(0, 7), p.initial_state(7, 12)]
    sweep_to_convergence(p, states, tol=1e-9)
    assembled = np.concatenate([states[0].traj, states[1].traj], axis=0)
    ref = p.reference_solution()
    assert np.max(np.abs(assembled - ref)) < 1e-6


def test_partition_does_not_change_fixed_point(small_problem):
    p = small_problem
    states_a = [p.initial_state(0, 4), p.initial_state(4, 12)]
    states_b = [p.initial_state(0, 9), p.initial_state(9, 12)]
    sweep_to_convergence(p, states_a, tol=1e-9)
    sweep_to_convergence(p, states_b, tol=1e-9)
    sol_a = np.concatenate([s.traj for s in states_a], axis=0)
    sol_b = np.concatenate([s.traj for s in states_b], axis=0)
    assert np.max(np.abs(sol_a - sol_b)) < 1e-6


def test_residual_decreases_and_work_shrinks(small_problem):
    p = small_problem
    st = p.initial_state(0, p.n_components)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(p.n_components)
    first = p.iterate(st, hl, hr)
    mid = None
    for _ in range(20):
        mid = p.iterate(st, hl, hr)
    assert mid.local_residual < first.local_residual
    # Near convergence the sweep gets cheaper (verification-only Newton).
    assert mid.total_work < first.total_work


def test_converged_components_cost_one_unit_per_step(small_problem):
    p = small_problem
    st = p.initial_state(0, p.n_components)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(p.n_components)
    for _ in range(200):
        res = p.iterate(st, hl, hr)
    # Fully converged: every component pays exactly one Newton iteration
    # (the verification) per time step.
    assert res.local_residual < 1e-12
    assert np.allclose(res.work, p.n_steps)


def test_split_merge_roundtrip(small_problem):
    p = small_problem
    st = p.initial_state(0, 12)
    original = st.traj.copy()
    payload = p.split(st, 4, "left")
    assert st.n == 8
    assert st.lo == 4
    p.merge(st, payload, "left")
    assert st.n == 12
    assert st.lo == 0
    assert np.array_equal(st.traj, original)

    payload = p.split(st, 3, "right")
    assert st.n == 9 and st.lo == 0
    p.merge(st, payload, "right")
    assert np.array_equal(st.traj, original)


def test_split_validation(small_problem):
    p = small_problem
    st = p.initial_state(0, 6)
    with pytest.raises(ValueError):
        p.split(st, 0, "left")
    with pytest.raises(ValueError):
        p.split(st, 6, "left")
    with pytest.raises(ValueError):
        p.split(st, 2, "up")


def test_halo_out_matches_boundary_trajectories(small_problem):
    p = small_problem
    st = p.initial_state(2, 9)
    left = p.halo_out(st, "left")
    right = p.halo_out(st, "right")
    assert np.array_equal(left, st.traj[0])
    assert np.array_equal(right, st.traj[-1])


def test_sizes_positive(small_problem):
    assert small_problem.halo_nbytes() > 0
    assert small_problem.component_nbytes() > 0


@pytest.mark.parametrize(
    "make,digest",
    [
        (
            lambda: BrusselatorProblem(16, t_end=1.0, n_steps=10),
            "30391e6333b80df21482a12dd0f8ae1e3412072578c7c95562355472f09f6743",
        ),
        (
            lambda: Table1Scenario.quick().problem(),
            "6606baf708a842599a80f1cbfe524a7f276c9c5fb27ec6ea32ed1313f86e37e7",
        ),
    ],
    ids=["n16", "table1_quick"],
)
def test_reference_solution_bytes_are_pinned(make, digest):
    """Every parallel run is checked against this array; its bytes are
    what a change under ``repro.numerics`` must leave alone."""
    ref = make().reference_solution()
    assert hashlib.sha256(np.ascontiguousarray(ref).tobytes()).hexdigest() == digest


def test_reference_backends_agree(request):
    p = BrusselatorProblem(n_points=6, t_end=1.0, n_steps=10)
    ref_native = p.reference_solution()
    request.getfixturevalue("scipy_banded")
    ref_scipy = p.reference_solution()
    assert np.max(np.abs(ref_native - ref_scipy)) < 1e-8


def test_solution_oscillates():
    """The Brusselator's hallmark: concentrations oscillate in time."""
    p = BrusselatorProblem(n_points=8, t_end=10.0, n_steps=100)
    ref = p.reference_solution()
    u_mid = ref[4, 0, :]
    # sign changes of the derivative => non-monotone behaviour
    diffs = np.diff(u_mid)
    assert np.any(diffs > 0) and np.any(diffs < 0)


def test_block_sweep_is_jacobi_not_gauss_seidel(small_problem):
    """Inside one block, component 1 reads component 0's *previous*
    trajectory (Algorithm 1: ``Ynew[j] = Solve(Yold)``), bit for bit —
    the scalar sweep shares one list per row between a component and
    its neighbours and must write changed steps to a copy."""
    p = small_problem
    hl, hr = p.initial_halo(3), p.initial_halo(6)
    pair = p.initial_state(4, 6)
    first = p.initial_state(4, 5)
    second = p.initial_state(5, 6)
    leaky = p.initial_state(5, 6)
    for _ in range(3):  # the first sweeps all run the Newton tail
        old0, old1 = pair.traj[0].copy(), pair.traj[1].copy()
        first.traj[0], second.traj[0], leaky.traj[0] = old0, old1, old1
        p.iterate(pair, hl, hr)
        p.iterate(first, hl, old1)
        p.iterate(second, old0, hr)  # Jacobi: the old left neighbour
        p.iterate(leaky, first.traj[0], hr)  # Gauss-Seidel: the new one
        assert pair.traj[0].tobytes() == first.traj[0].tobytes()
        assert pair.traj[1].tobytes() == second.traj[0].tobytes()
        assert pair.traj[1].tobytes() != leaky.traj[0].tobytes()


class _Collect:
    """A ``sidecar`` that keeps each run's ``RunResult`` by version."""

    def __init__(self):
        self.results = {}

    def collect(self, result, run):
        self.results[run] = result


#: The ``table1_grid`` benchmark body's outcome digest (the two virtual
#: times, the migrations, the final sizes) and both arms' fingerprints.
TABLE1_GRID_DIGEST = (
    "47131a3c442ea27e839725e7d237ef2146c175a2fd16e6a5dedb212a30c306fc"
)
TABLE1_GRID_FINGERPRINTS = {
    "unbalanced": (
        "9e3731bd6ec57b7cb38cba60614f61c664bcb7397bb2d67337755b21ea60077a"
    ),
    "balanced": (
        "74c3823ddf94f08b5a0eb5972421171f6cc96fc89edc221a025e222cb49548ea"
    ),
}


def test_table1_grid_body_is_pinned(monkeypatch):
    """The ``table1_grid`` benchmark body, pinned literally on both sweep
    paths."""
    from dataclasses import replace

    from repro.analysis.perf import run_fingerprint, stable_digest
    from repro.experiments import run_table1

    scenario = replace(Table1Scenario.quick(), n_points=45)
    for path in SWEEP_PATHS:
        force_sweep_path(monkeypatch, path)
        runs = _Collect()
        raw = run_table1(scenario, sidecar=runs)
        assert raw.migrations == 68
        outcome = {
            "time_unbalanced": raw.time_unbalanced,
            "time_balanced": raw.time_balanced,
            "migrations": raw.migrations,
            "components_migrated": raw.components_migrated,
            "final_sizes": list(raw.final_sizes),
        }
        assert stable_digest(outcome) == TABLE1_GRID_DIGEST, path
        fingerprints = {r: run_fingerprint(v) for r, v in runs.results.items()}
        assert fingerprints == TABLE1_GRID_FINGERPRINTS, path
