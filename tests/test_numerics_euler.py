"""Tests for the banded implicit Euler integrator and its dense
reference (``tests/oracles.py``)."""

import numpy as np
import pytest

from repro.numerics.euler import implicit_euler_banded
from tests.oracles import implicit_euler_dense


def test_scalar_decay_matches_backward_euler_formula():
    # y' = -2y: backward Euler gives y_k = y0 / (1 + 2 dt)^k.
    lam = 2.0
    t = np.linspace(0, 1, 11)
    dt = t[1] - t[0]
    traj = implicit_euler_dense(
        lambda tt, y: -lam * y,
        lambda tt, y: np.array([[-lam]]),
        np.array([1.0]),
        t,
    )
    expected = 1.0 / (1.0 + lam * dt) ** np.arange(11)
    assert np.allclose(traj[:, 0], expected, atol=1e-9)


def test_linear_system_against_expm_like_reference():
    # Stiff linear system: y' = A y; implicit Euler == (I - dt A)^-1 step.
    a = np.array([[-5.0, 1.0], [0.0, -0.5]])
    t = np.linspace(0, 1, 21)
    dt = t[1] - t[0]
    traj = implicit_euler_dense(
        lambda tt, y: a @ y, lambda tt, y: a, np.array([1.0, 1.0]), t
    )
    step = np.linalg.inv(np.eye(2) - dt * a)
    y = np.array([1.0, 1.0])
    for k in range(1, 21):
        y = step @ y
        assert np.allclose(traj[k], y, atol=1e-9)


def test_first_row_is_initial_condition():
    t = np.linspace(0, 1, 5)
    traj = implicit_euler_dense(
        lambda tt, y: -y, lambda tt, y: -np.eye(1), np.array([7.0]), t
    )
    assert traj[0, 0] == 7.0


def test_grid_validation():
    with pytest.raises(ValueError):
        implicit_euler_dense(
            lambda t, y: y, lambda t, y: np.eye(1), np.array([1.0]), np.array([0.0])
        )
    with pytest.raises(ValueError):
        implicit_euler_dense(
            lambda t, y: y,
            lambda t, y: np.eye(1),
            np.array([1.0]),
            np.array([0.0, 0.0, 1.0]),
        )


@pytest.mark.parametrize("backend", ["native", "scipy"])
def test_banded_matches_dense_on_heat_chain(backend, request):
    if backend == "scipy":
        request.getfixturevalue("scipy_banded")
    # y' = L y with L the 1-D Laplacian: tridiagonal, kl = ku = 1.
    n = 12
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    lap = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)

    def rhs(t, y):
        return lap @ y

    def jac_dense(t, y):
        return lap

    def jac_banded(t, y):
        bands = np.zeros((3, n))
        bands[0, 1:] = off
        bands[1, :] = main
        bands[2, :-1] = off
        return bands

    y0 = np.sin(np.linspace(0, np.pi, n))
    t = np.linspace(0, 0.5, 26)
    dense = implicit_euler_dense(rhs, jac_dense, y0, t)
    banded = implicit_euler_banded(rhs, jac_banded, 1, 1, y0, t)
    assert np.allclose(dense, banded, atol=1e-8)


def test_nonlinear_banded_newton_converges():
    # y'_i = -y_i^3 (diagonal, nonlinear): banded with kl=ku=0.
    n = 4

    def rhs(t, y):
        return -(y**3)

    def jac_banded(t, y):
        return (-3.0 * y**2)[None, :]

    y0 = np.full(n, 2.0)
    t = np.linspace(0, 1, 11)
    traj = implicit_euler_banded(rhs, jac_banded, 0, 0, y0, t)
    # Monotone decay towards zero, no blow-up.
    assert np.all(np.diff(traj[:, 0]) < 0)
    assert traj[-1, 0] > 0
