"""1-D heat equation by waveform relaxation (second physical example).

``u_t = κ u_xx`` on ``(0, 1)`` with homogeneous Dirichlet boundaries and
initial profile ``u(x, 0) = sin(π x)``.  Discretised like the
Brusselator (implicit Euler in time, central differences in space) but
*linear*: the per-(component, step) solve is a closed-form division, so
every component costs exactly one work unit per step.  Activity-driven
cost imbalance is absent — the heat problem isolates the timing/
communication machinery and serves as a simple teaching example (the
quickstart uses it).

The analytic solution ``u = exp(-κ π² t) sin(π x)`` gives an external
accuracy oracle beyond the discrete reference.
"""

from __future__ import annotations

import numpy as np

from repro.problems import _compiled
from repro.problems.base import (
    BlockState,
    IterationResult,
    Problem,
    padded,
)
from repro.util.validation import check_positive

__all__ = ["HeatProblem"]

class HeatProblem(Problem):
    """Waveform relaxation for the 1-D heat equation: a block holds its
    components' trajectories, ``traj`` of shape ``(n, n_steps + 1)``."""

    name = "heat"

    def __init__(
        self,
        n_points: int,
        *,
        kappa: float = 1.0,
        t_end: float = 0.1,
        n_steps: int = 50,
    ) -> None:
        check_positive("n_points", n_points)
        check_positive("kappa", kappa)
        check_positive("t_end", t_end)
        check_positive("n_steps", n_steps)
        self.n_components = int(n_points)
        self.kappa = float(kappa)
        self.t_end = float(t_end)
        self.n_steps = int(n_steps)
        self.component_shape = (self.n_steps + 1,)
        self.dt = self.t_end / self.n_steps
        dx = 1.0 / (self.n_components + 1)
        self.c = self.kappa / dx**2

    # ------------------------------------------------------------------
    def x_grid(self) -> np.ndarray:
        return np.arange(1, self.n_components + 1) / (self.n_components + 1)

    def initial_traj(self, lo: int, hi: int) -> np.ndarray:
        x = np.arange(lo + 1, hi + 1) / (self.n_components + 1)
        u0 = np.sin(np.pi * x)
        return np.repeat(u0[:, None], self.n_steps + 1, axis=1)

    def iterate(
        self,
        state: BlockState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        return self._sweep(_compiled.heat, state, left_halo, right_halo)

    def _sweep(
        self, kernel, state: BlockState, left_halo, right_halo
    ) -> IterationResult:
        """:meth:`iterate` on the compiled ``kernel``
        (:mod:`repro.problems._compiled`: this sweep as one loop, reading
        the halos and the block in place), or in NumPy when it is None:
        bit for bit the same."""
        old = state.traj  # (n, steps+1)
        n, steps = state.n, self.n_steps
        # One work unit per (component, step): linear solve, no Newton.
        # Integer-valued work: its sum is exact in any order.
        total = float(n * steps)
        if kernel is not None:
            size = old.size
            out = np.empty(size + 2 * n)
            c, dt = self.c, self.dt
            top = kernel.heat(
                left_halo, old, right_halo, out, steps, c * dt, 1.0 + 2.0 * c * dt
            )
            state.traj = out[:size].reshape(old.shape)
            work = out[size + n :]
            if top is not None:
                return IterationResult(out[size : size + n], work, top, total)
        else:
            # One Jacobi sweep: the neighbours are last sweep's, so their
            # source term is formed once for all steps; only a
            # component's own recurrence is sequential.
            c, dt = self.c, self.dt
            ext = padded(old, left_halo, right_halo)
            new = np.empty_like(old)
            new[:, 0] = old[:, 0]
            denom = 1.0 + 2.0 * c * dt
            # Injected state corruption can overflow here; the non-finite
            # residual *is* the signal the divergence/plausibility guards
            # roll back on, so the overflow is not worth a warning.
            with np.errstate(over="ignore"):
                src = c * dt * (ext[:-2] + ext[2:])
                for k in range(1, steps + 1):
                    new[:, k] = (new[:, k - 1] + src[:, k]) / denom
            state.traj = new
            work = np.full(n, float(steps))
        return IterationResult.from_arrays(
            np.abs(state.traj - old).max(axis=1), work
        )

    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        if global_index < 0 or global_index >= self.n_components:
            return np.zeros((1, self.n_steps + 1))  # Dirichlet boundary
        x = (global_index + 1) / (self.n_components + 1)
        return np.full((1, self.n_steps + 1), np.sin(np.pi * x))

    # ------------------------------------------------------------------
    def reference_solution(self) -> np.ndarray:
        """Fully-coupled implicit Euler solution, shape ``(n, steps+1)``."""
        from repro.numerics.banded import thomas_solve

        n = self.n_components
        u = np.sin(np.pi * self.x_grid())
        out = np.empty((n, self.n_steps + 1))
        out[:, 0] = u
        r = self.c * self.dt
        lower = np.full(n, -r)
        upper = np.full(n, -r)
        diag = np.full(n, 1.0 + 2.0 * r)
        lower[0] = 0.0
        upper[-1] = 0.0
        for k in range(1, self.n_steps + 1):
            u = thomas_solve(lower, diag, upper, u)
            out[:, k] = u
        return out
