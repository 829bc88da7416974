"""Implicit Euler integration of ODE systems (sequential reference).

The paper's two-stage iteration is "implicit Euler to approximate the
derivative, Newton to solve the resulting nonlinear system".  This
module provides the *sequential* version of that scheme on the **full
coupled system**: it is the fixed point towards which the parallel
waveform relaxation converges (same time grid, same tolerance), and
therefore the ground truth every parallel run is checked against.

:func:`implicit_euler_banded` is banded Newton for 1-D
reaction–diffusion systems (the Brusselator's interleaved Jacobian has
``kl = ku = 2``), factoring ``I - dt·J`` afresh every iteration.  The
tests check it against a dense-Newton reference of their own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.numerics.banded import BandedMatrix

__all__ = ["implicit_euler_banded"]

#: rhs(t, y) -> dy/dt
Rhs = Callable[[float, np.ndarray], np.ndarray]
#: jac_banded(t, y) -> band storage of the rhs Jacobian (kl+ku+1, n)
BandedJac = Callable[[float, np.ndarray], np.ndarray]


def implicit_euler_banded(
    rhs: Rhs,
    jac_banded: BandedJac,
    kl: int,
    ku: int,
    y0: np.ndarray,
    t_grid: np.ndarray,
    *,
    newton_tol: float = 1e-10,
    newton_max_iter: int = 50,
) -> np.ndarray:
    """Banded-Jacobian implicit Euler (reference solver for 1-D PDEs).

    ``jac_banded`` must return band storage (see
    :class:`repro.numerics.banded.BandedMatrix`) of ``∂rhs/∂y``.  The
    Newton matrix ``I - dt·J`` is assembled in band storage directly.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be 1-D with at least two points")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[0]
    out = np.empty((len(t_grid), n))
    out[0] = y0
    for k in range(1, len(t_grid)):
        dt = t_grid[k] - t_grid[k - 1]
        t_new = t_grid[k]
        y = out[k - 1].copy()
        converged = False
        for _ in range(newton_max_iter):
            residual = y - out[k - 1] - dt * rhs(t_new, y)
            if np.max(np.abs(residual)) <= newton_tol:
                converged = True
                break
            bands = -dt * jac_banded(t_new, y)
            bands[ku, :] += 1.0  # the I of I - dt*J
            y = y - BandedMatrix(bands, kl, ku).lu_factor().solve(residual)
        if not converged:
            residual = y - out[k - 1] - dt * rhs(t_new, y)
            if np.max(np.abs(residual)) > newton_tol:
                raise RuntimeError(
                    f"banded implicit Euler Newton failed at t={t_new}"
                )
        out[k] = y
    return out
