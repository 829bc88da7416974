"""1-D advection–diffusion by waveform relaxation (fourth problem).

``u_t + a u_x = κ u_xx`` on ``(0, 1)``, homogeneous Dirichlet
boundaries, a Gaussian pulse as initial condition.  Discretised with
first-order upwind advection (``a > 0``: information flows rightward)
and central diffusion, implicit Euler in time, relaxed over the chain
exactly like the heat problem.

Two properties make it a useful member of the problem library:

* the coupling is **asymmetric** — for ``a > 0`` a component leans much
  harder on its *left* neighbour, so the waveform relaxation's error
  contracts faster sweeping information left-to-right than right-to-left
  (visible in convergence tests);
* the pulse **travels**: the spatial region where the solution changes
  moves downstream over the time window, a physical source of the
  non-uniform activity the paper's load balancer exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.banded import thomas_solve
from repro.problems.base import IterationResult, Problem, padded
from repro.problems.chain_sweeper import LinearChainSweeper
from repro.util.validation import check_non_negative, check_positive

__all__ = ["AdvectionDiffusionProblem", "AdvectionState"]


@dataclass(slots=True)
class AdvectionState:
    """Local trajectories ``(n_local, n_steps + 1)``."""

    lo: int
    traj: np.ndarray

    @property
    def n(self) -> int:
        return self.traj.shape[0]


class AdvectionDiffusionProblem(Problem):
    """Waveform relaxation for upwind advection–diffusion."""

    name = "advection_diffusion"

    def __init__(
        self,
        n_points: int,
        *,
        velocity: float = 1.0,
        kappa: float = 0.01,
        t_end: float = 0.4,
        n_steps: int = 40,
        pulse_center: float = 0.2,
        pulse_width: float = 0.05,
    ) -> None:
        check_positive("n_points", n_points)
        check_non_negative("velocity", velocity)
        check_positive("kappa", kappa)
        check_positive("t_end", t_end)
        check_positive("n_steps", n_steps)
        check_positive("pulse_width", pulse_width)
        self.n_components = int(n_points)
        self.velocity = float(velocity)
        self.kappa = float(kappa)
        self.t_end = float(t_end)
        self.n_steps = int(n_steps)
        self.dt = self.t_end / self.n_steps
        self.dx = 1.0 / (self.n_components + 1)
        self.pulse_center = float(pulse_center)
        self.pulse_width = float(pulse_width)
        #: Upwind advection coefficient (multiplies the left neighbour).
        self.adv = self.velocity * self.dt / self.dx
        #: Diffusion coefficient (multiplies both neighbours).
        self.dif = self.kappa * self.dt / self.dx**2

    # ------------------------------------------------------------------
    def x_grid(self) -> np.ndarray:
        return np.arange(1, self.n_components + 1) / (self.n_components + 1)

    def initial_values(self, lo: int, hi: int) -> np.ndarray:
        x = np.arange(lo + 1, hi + 1) / (self.n_components + 1)
        return np.exp(-((x - self.pulse_center) ** 2) / (2 * self.pulse_width**2))

    def initial_state(self, lo: int, hi: int) -> AdvectionState:
        if not 0 <= lo < hi <= self.n_components:
            raise ValueError(
                f"invalid block [{lo}, {hi}) for {self.n_components} components"
            )
        u0 = self.initial_values(lo, hi)
        return AdvectionState(lo=lo, traj=np.repeat(u0[:, None], self.n_steps + 1, axis=1))

    def n_local(self, state: AdvectionState) -> int:
        return state.n

    # ------------------------------------------------------------------
    def iterate(
        self,
        state: AdvectionState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        old = state.traj
        new = self._relax(old, left_halo, right_halo)
        residuals = np.max(np.abs(new - old), axis=1)
        state.traj = new
        return IterationResult.from_arrays(
            residuals, np.full(state.n, float(self.n_steps))
        )

    def _relax(
        self, old: np.ndarray, left_halo: np.ndarray, right_halo: np.ndarray
    ) -> np.ndarray:
        """One Jacobi sweep of the rows ``old`` between two halos."""
        ext = padded(old, left_halo, right_halo)
        from_left = (self.adv + self.dif) * ext[:-2]
        from_right = self.dif * ext[2:]
        new = np.empty_like(old)
        new[:, 0] = old[:, 0]
        denom = 1.0 + self.adv + 2.0 * self.dif
        for k in range(1, self.n_steps + 1):
            new[:, k] = (new[:, k - 1] + from_left[:, k] + from_right[:, k]) / denom
        return new

    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        if global_index < 0 or global_index >= self.n_components:
            return np.zeros((1, self.n_steps + 1))  # Dirichlet boundaries
        u0 = self.initial_values(global_index, global_index + 1)[0]
        return np.full((1, self.n_steps + 1), u0)

    def halo_out(self, state: AdvectionState, side: str) -> np.ndarray:
        self.check_side(side)
        idx = 0 if side == "left" else state.n - 1
        return state.traj[idx : idx + 1].copy()

    def halo_nbytes(self) -> float:
        return (self.n_steps + 1) * 8.0

    # ------------------------------------------------------------------
    def split(self, state: AdvectionState, n: int, side: str) -> np.ndarray:
        self.check_side(side)
        if not 0 < n < state.n:
            raise ValueError(f"cannot split {n} of {state.n} components")
        if side == "left":
            payload = state.traj[:n].copy()
            state.traj = state.traj[n:].copy()
            state.lo += n
        else:
            payload = state.traj[state.n - n :].copy()
            state.traj = state.traj[: state.n - n].copy()
        return payload

    def merge(self, state: AdvectionState, payload: np.ndarray, side: str) -> None:
        self.check_side(side)
        payload = np.asarray(payload, dtype=float)
        if payload.ndim != 2 or payload.shape[1] != self.n_steps + 1:
            raise ValueError(f"bad migration payload shape {payload.shape}")
        if side == "left":
            state.traj = np.concatenate([payload, state.traj], axis=0)
            state.lo -= payload.shape[0]
        else:
            state.traj = np.concatenate([state.traj, payload], axis=0)

    def component_nbytes(self) -> float:
        return (self.n_steps + 1) * 8.0

    # ------------------------------------------------------------------
    # Rank-batched sweeps (lockstep SISC engine)
    # ------------------------------------------------------------------
    def batched_chain_sweeper(
        self, blocks: list[tuple[int, int]]
    ) -> LinearChainSweeper:
        return LinearChainSweeper(self, blocks)

    # ------------------------------------------------------------------
    def solution(self, state: AdvectionState) -> np.ndarray:
        return state.traj.copy()

    def reference_solution(self) -> np.ndarray:
        """Fully-coupled implicit Euler solution, shape ``(n, steps+1)``."""
        n = self.n_components
        u = self.initial_values(0, n)
        out = np.empty((n, self.n_steps + 1))
        out[:, 0] = u
        lower = np.full(n, -(self.adv + self.dif))
        diag = np.full(n, 1.0 + self.adv + 2.0 * self.dif)
        upper = np.full(n, -self.dif)
        lower[0] = 0.0
        upper[-1] = 0.0
        for k in range(1, self.n_steps + 1):
            u = thomas_solve(lower, diag, upper, u)
            out[:, k] = u
        return out

    def activity_profile(self, state: AdvectionState) -> np.ndarray:
        """Per-component total trajectory variation (where the pulse acts)."""
        return np.abs(np.diff(state.traj, axis=1)).sum(axis=1)

