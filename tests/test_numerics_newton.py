"""Tests for the batched 2x2 Newton solver."""

import numpy as np
import pytest

from repro.numerics.newton import NewtonOptions, newton_batched_2x2


def quadratic_system(targets_u, targets_v):
    """F = (u^2 - a, v^2 - b): roots at (sqrt(a), sqrt(b))."""

    def f(u, v):
        f1 = u * u - targets_u
        f2 = v * v - targets_v
        j11 = 2 * u
        j12 = np.zeros_like(u)
        j21 = np.zeros_like(u)
        j22 = 2 * v
        return f1, f2, j11, j12, j21, j22

    return f


def test_solves_batch_of_quadratics():
    a = np.array([4.0, 9.0, 2.0])
    b = np.array([16.0, 1.0, 3.0])
    res = newton_batched_2x2(quadratic_system(a, b), np.ones(3) * 3, np.ones(3) * 3)
    assert res.all_converged
    assert np.allclose(res.u, np.sqrt(a), atol=1e-8)
    assert np.allclose(res.v, np.sqrt(b), atol=1e-8)


def test_coupled_system():
    # F1 = u + v - 3, F2 = u*v - 2  -> (1, 2) or (2, 1).
    def f(u, v):
        return (
            u + v - 3.0,
            u * v - 2.0,
            np.ones_like(u),
            np.ones_like(u),
            v,
            u,
        )

    res = newton_batched_2x2(f, np.array([0.5]), np.array([2.5]))
    assert res.all_converged
    assert res.u[0] + res.v[0] == pytest.approx(3.0)
    assert res.u[0] * res.v[0] == pytest.approx(2.0)


def test_converged_guess_costs_one_iteration():
    a = np.array([4.0, 9.0])
    b = np.array([4.0, 9.0])
    # Start exactly at the roots: residual already satisfies tol.
    res = newton_batched_2x2(
        quadratic_system(a, b), np.array([2.0, 3.0]), np.array([2.0, 3.0])
    )
    assert res.all_converged
    # Verification-only cost: exactly one work unit.
    assert np.array_equal(res.iterations, [1, 1])


def test_active_components_cost_more_than_converged():
    a = np.array([4.0, 4.0])
    b = np.array([4.0, 4.0])
    u0 = np.array([2.0, 37.0])  # first at root, second far away
    v0 = np.array([2.0, 41.0])
    res = newton_batched_2x2(quadratic_system(a, b), u0, v0)
    assert res.all_converged
    assert res.iterations[0] == 1
    assert res.iterations[1] > res.iterations[0]


def test_max_iter_exhaustion_flags_unconverged():
    a = np.array([4.0])
    b = np.array([4.0])
    res = newton_batched_2x2(
        quadratic_system(a, b),
        np.array([1e8]),
        np.array([1e8]),
        NewtonOptions(tol=1e-14, max_iter=2),
    )
    assert not res.all_converged
    assert res.iterations[0] == 2


def test_singular_jacobian_does_not_raise():
    def f(u, v):
        z = np.zeros_like(u)
        return u - 1.0, v - 1.0, z, z, z, z  # singular everywhere

    res = newton_batched_2x2(f, np.array([0.0]), np.array([0.0]))
    assert not res.converged[0]


def test_input_not_mutated():
    u0 = np.array([3.0])
    v0 = np.array([3.0])
    newton_batched_2x2(quadratic_system(np.array([4.0]), np.array([4.0])), u0, v0)
    assert u0[0] == 3.0 and v0[0] == 3.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        newton_batched_2x2(
            quadratic_system(np.ones(2), np.ones(2)), np.ones(2), np.ones(3)
        )


def test_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iter=0)
    with pytest.raises(ValueError):
        NewtonOptions(damping=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(damping=1.5)


def test_damped_newton_still_converges():
    a = np.array([4.0])
    b = np.array([9.0])
    res = newton_batched_2x2(
        quadratic_system(a, b),
        np.array([5.0]),
        np.array([5.0]),
        NewtonOptions(damping=0.7, max_iter=60),
    )
    assert res.all_converged
    assert np.allclose(res.u, [2.0], atol=1e-7)


def test_total_work_property():
    a = np.array([4.0, 9.0])
    res = newton_batched_2x2(quadratic_system(a, a), np.ones(2) * 5, np.ones(2) * 5)
    assert res.total_work == float(res.iterations.sum())
