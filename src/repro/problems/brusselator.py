"""The Brusselator problem (Section 4 of the paper).

The Brusselator models an autocatalytic oscillating chemical reaction.
Discretising the 1-D reaction–diffusion form on ``N`` interior points
gives the stiff ODE system (paper Eq. 4, identical to Hairer & Wanner's
formulation)::

    u'_i = 1 + u_i² v_i - 4 u_i + c (u_{i-1} - 2 u_i + u_{i+1})
    v'_i = 3 u_i - u_i² v_i + c (v_{i-1} - 2 v_i + v_{i+1})

with ``c = α (N+1)²``, ``α = 1/50``, time window ``[0, 10]``, initial
conditions ``u_i(0) = 1 + sin(2π x_i)``, ``v_i(0) = 3`` and Dirichlet
boundary values ``u = 1``, ``v = 3`` at both ends.

.. note::
   The paper's scanned text prints the boundary condition as
   ``u_0(t) = u_{N+1}(t) = α(N+1)²`` — an obvious typesetting artifact
   (that expression is the diffusion prefactor from the line above).  We
   use the cited source's (Hairer & Wanner, *Solving ODEs II*) standard
   values ``u = A = 1``, ``v = B = 3``, which also make the chemistry
   well-posed (concentrations stay positive).

Parallel formulation — nonlinear waveform relaxation
----------------------------------------------------
Following the paper's Algorithm 1, each *component* (one spatial pair
``(u_i, v_i)`` — two of the paper's interleaved scalar components) keeps
its **entire time trajectory**.  One outer iteration re-integrates every
local component over the full window with implicit Euler, Newton-solving
a 2×2 system per (component, time step) while the *neighbouring*
components' trajectories are frozen at their previous iterate (Jacobi
relaxation across space, as in Algorithm 1 where ``Ynew[j,t] =
Solve(Yold[j,t])`` reads neighbours from ``Yold``).

The lagged diffusion coupling is a contraction (the implicit treatment
of the ``-2u_i`` term dominates the off-diagonal ``c·dt`` terms), so the
relaxation converges to the solution of the fully-coupled implicit Euler
discretisation — which :func:`reference_solution` computes directly and
the test suite compares against.

Work model: the per-(component, step) Newton iteration counts are
summed per component.  Converged components verify in one iteration
per step; active components take several — per-sweep cost tracks
*activity*, which is why the residual is the right load estimator
(Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.newton import NewtonOptions
from repro.problems import _compiled
from repro.problems.base import (
    BlockState,
    IterationResult,
    Problem,
    padded,
)
from repro.util.validation import check_positive

__all__ = ["BrusselatorProblem", "BrusselatorState"]

#: Dirichlet boundary values (A and B of the reaction scheme).
U_BOUNDARY = 1.0
V_BOUNDARY = 3.0

_NEWTON_FAILED = (
    "brusselator Newton failed on {} component(s) at step {} "
    "(block starting at {}); reduce dt or raise newton_max_iter"
)


def _quiet_since(
    halo: np.ndarray, last: np.ndarray | None, threshold: float
) -> bool:
    """Whether an incoming halo moved less than ``threshold`` everywhere
    since ``last``, the halo the previous sweep kept (a NaN difference
    is never quiet).  Callers pass a new array whenever halo values
    change, so the same object is the same values."""
    return last is not None and (
        halo is last or bool((np.abs(halo - last) < threshold).all())
    )


def _kept_halo(
    halo: np.ndarray, last: np.ndarray | None
) -> np.ndarray | None:
    """The halo a sweep keeps for the next one's :func:`_quiet_since`:
    itself when every value is finite, else None (a non-finite halo is
    never quiet, and neither is the next one measured against it)."""
    return halo if halo is last or np.isfinite(halo).all() else None


def _invalidate_skip_state(state: "BrusselatorState") -> None:
    state.prev_res = None
    state.skip_streak = None
    state.last_left_halo = None
    state.last_right_halo = None


@dataclass(slots=True)
class BrusselatorState(BlockState):
    """A block of trajectories, ``traj`` of shape ``(n_local, 2, n_steps
    + 1)``: axis 1 indexes ``(u, v)``, axis 2 the time grid including
    ``t = 0``.

    The other fields support the adaptive-skip optimisation (see
    :class:`BrusselatorProblem`); they are ``None`` until the first
    sweep / when skipping is disabled, and after every migration.  The
    last halos are the previous sweep's halo arrays themselves, kept only
    when every value is finite (:func:`_kept_halo`).
    """

    prev_res: np.ndarray | None = None
    skip_streak: np.ndarray | None = None
    last_left_halo: np.ndarray | None = None
    last_right_halo: np.ndarray | None = None


class BrusselatorProblem(Problem):
    """The paper's evaluation problem as a decomposable fixed point.

    Parameters
    ----------
    n_points:
        Number of interior spatial points ``N`` (components).
    t_end:
        End of the integration window (paper: 10).
    n_steps:
        Number of implicit Euler steps over ``[0, t_end]`` (``δt =
        t_end / n_steps``).
    alpha:
        Diffusion parameter (paper: 1/50).
    newton_tol, newton_max_iter:
        Inner Newton controls per (component, step).
    """

    name = "brusselator"
    state_class = BrusselatorState

    def __init__(
        self,
        n_points: int,
        *,
        t_end: float = 10.0,
        n_steps: int = 100,
        alpha: float = 1.0 / 50.0,
        newton_tol: float = 1e-8,
        newton_max_iter: int = 25,
        skip_converged: bool = False,
        skip_threshold: float = 1e-6,
        refresh_period: int = 20,
    ) -> None:
        """See class docstring; for the skip options note that
        ``skip_threshold`` should sit one or two orders of magnitude
        *above* the convergence tolerance you will solve to — the skip
        trades a bounded input staleness (< threshold between
        refreshes) for work, and a threshold below the tolerance can
        never engage before the run ends."""
        check_positive("n_points", n_points)
        check_positive("t_end", t_end)
        check_positive("n_steps", n_steps)
        check_positive("alpha", alpha)
        self.n_components = int(n_points)
        self.t_end = float(t_end)
        self.n_steps = int(n_steps)
        self.component_shape = (2, self.n_steps + 1)
        self.dt = self.t_end / self.n_steps
        self.alpha = float(alpha)
        self.c = self.alpha * (self.n_components + 1) ** 2
        self.newton = NewtonOptions(tol=newton_tol, max_iter=newton_max_iter)
        self.skip_converged = bool(skip_converged)
        self.skip_threshold = float(check_positive("skip_threshold", skip_threshold))
        self.refresh_period = int(refresh_period)
        if self.refresh_period < 1:
            raise ValueError(
                f"refresh_period must be >= 1, got {refresh_period!r}"
            )

    # ------------------------------------------------------------------
    # Initial data
    # ------------------------------------------------------------------
    def initial_values(self, lo: int, hi: int) -> np.ndarray:
        """Initial conditions for components ``[lo, hi)``: shape (n, 2)."""
        idx = np.arange(lo, hi)
        x = (idx + 1) / (self.n_components + 1)
        u0 = 1.0 + np.sin(2.0 * np.pi * x)
        v0 = np.full_like(u0, V_BOUNDARY)
        return np.stack([u0, v0], axis=1)

    def initial_traj(self, lo: int, hi: int) -> np.ndarray:
        init = self.initial_values(lo, hi)  # (n, 2)
        return np.repeat(init[:, :, None], self.n_steps + 1, axis=2)

    # ------------------------------------------------------------------
    # Halos
    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        """Constant-in-time trajectory of the initial guess (or BC)."""
        if global_index < 0 or global_index >= self.n_components:
            # Domain edge: the Dirichlet boundary trajectory.
            halo = np.empty((2, self.n_steps + 1))
            halo[0] = U_BOUNDARY
            halo[1] = V_BOUNDARY
            return halo
        init = self.initial_values(global_index, global_index + 1)[0]
        return np.repeat(init[:, None], self.n_steps + 1, axis=1)

    def halo_out(self, state: BrusselatorState, side: str) -> np.ndarray:
        # Halos are single-component trajectories of shape (2, n_steps+1);
        # any other side raises check_side's error, without the call.
        if side == "left":
            return state.traj[0].copy()
        if side == "right":
            return state.traj[-1].copy()
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def payload_edge_halo(self, payload: np.ndarray, edge: str) -> np.ndarray:
        if edge not in ("first", "last"):
            raise ValueError(f"edge must be 'first' or 'last', got {edge!r}")
        return payload[0].copy() if edge == "first" else payload[-1].copy()

    # ------------------------------------------------------------------
    # One waveform-relaxation sweep
    # ------------------------------------------------------------------
    def iterate(
        self,
        state: BrusselatorState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        return self._sweep(_compiled.brusselator, state, left_halo, right_halo)

    def _sweep(
        self, kernel, state: BrusselatorState, left_halo, right_halo
    ) -> IterationResult:
        """:meth:`iterate` on the compiled ``kernel``
        (:mod:`repro.problems._compiled`: the skip test, the sweep and the
        kept residuals as one loop reading the halos and the block in
        place), or with a NumPy skip mask and :meth:`_sweep_scalar` when
        it is None: bit for bit the same.

        A component keeps last sweep's trajectory, pays one work unit and
        reports its kept (below-threshold) residual when its own and both
        its neighbours' residuals were below ``skip_threshold`` last sweep
        (across the block boundary: the incoming halo is unchanged) and it
        has not been skipped ``refresh_period`` sweeps in a row (the
        safety refresh).  Reactivation travels one component per sweep,
        like the relaxation's own information flow, so skipping never
        hides a genuine change.  Every component is swept on its own, and
        a halo moves by exactly its component's residual, so a
        :class:`~repro.problems.base.ChainSweeper` round's skips and
        results are every rank's, bit for bit.

        A halo that is not ``2 * (n_steps + 1)`` C-contiguous float64
        values raises ``TypeError`` or ``ValueError``, a Newton failure
        ``RuntimeError``; either way the state is left as it was.
        """
        n, steps, thr = len(state.traj), self.n_steps, self.skip_threshold
        skipping = self.skip_converged and not (
            state.prev_res is None or state.skip_streak is None
        )
        if kernel is None:
            halos = [self._halo_rows(left_halo), self._halo_rows(right_halo)]
        left_quiet = skipping and _quiet_since(left_halo, state.last_left_halo, thr)
        right_quiet = skipping and _quiet_since(
            right_halo, state.last_right_halo, thr
        )
        if kernel is not None:
            # Every output goes to one buffer: one allocation.
            size = n * 2 * (steps + 1)
            out = np.empty(size + 3 * n + 3)
            opts = self.newton
            step = kernel.brusselator(
                left_halo, state.traj, right_halo, out,
                state.prev_res if skipping else None,
                state.skip_streak if skipping else None,
                left_quiet, right_quiet,
                steps, self.dt, self.c, opts.tol, opts.max_iter, opts.damping,
                thr, self.refresh_period,
            )
            top, total, failed = out[-3:].tolist()
            failure = (int(failed), step) if step else None
            new = out[:size].reshape(state.traj.shape)
            work = out[size : size + n]
            residuals = out[size + n : size + 2 * n]
            streak = out[size + 2 * n : -3]
        else:
            skip = np.zeros(n, dtype=bool)
            streak = np.zeros(n)
            if skipping:
                below = state.prev_res < thr
                neighbours = padded(below, left_quiet, right_quiet)
                skip = below & neighbours[:-2] & neighbours[2:]
                skip &= state.skip_streak < self.refresh_period
                streak = np.where(skip, state.skip_streak + 1.0, 0.0)
            new, work, residuals, (top, total), failure = self._sweep_scalar(
                padded(state.traj, *halos),
                (~skip).nonzero()[0] if skip.any() else None,
            )
            if skip.any():
                # Every residual is +0.0 or finite and positive (a
                # non-finite one fails Newton): the max folds in exactly.
                kept = state.prev_res[skip]
                residuals[skip] = kept
                top = max(top, float(kept.max()))
        if failure:
            raise RuntimeError(_NEWTON_FAILED.format(*failure, state.lo))
        state.traj = new
        if self.skip_converged:
            state.skip_streak = streak
            state.prev_res = residuals.copy()
            state.last_left_halo = _kept_halo(left_halo, state.last_left_halo)
            state.last_right_halo = _kept_halo(right_halo, state.last_right_halo)
        return IterationResult(residuals, work, top, total)

    def _halo_rows(self, halo) -> np.ndarray:
        """``halo`` as ``(2, n_steps + 1)`` rows, or what the compiled
        sweep raises for it: ``TypeError`` with no buffer (a float, say)
        or not float64, ``ValueError`` for other than that many
        C-contiguous values."""
        view = memoryview(halo)
        if view.format != "d":
            raise TypeError(f"halo must be float64, got format {view.format!r}")
        if not view.c_contiguous or view.nbytes != 16 * (self.n_steps + 1):
            raise ValueError(f"halo must be {2 * (self.n_steps + 1)} values")
        return np.asarray(halo).reshape(self.component_shape)

    def _sweep_scalar(
        self, ext: np.ndarray, active: np.ndarray | None
    ) -> tuple[
        np.ndarray,
        np.ndarray,
        np.ndarray,
        tuple[float, float],
        tuple[int, int] | None,
    ]:
        """The sweep of the ``active`` components on Python floats: the
        reference the compiled sweep (``_sweeps.c``) is held to, and the
        path wherever it does not load.

        For each component, each step from 1 on is the sequential
        per-step Newton: pass 0 tests the residual at the old value —
        while it holds the step is *verified*, one work unit and no
        change — and a step that fails it iterates.  Same arithmetic,
        same expression order and same iteration / convergence
        bookkeeping as the per-step ``f`` +
        :func:`~repro.numerics.newton.newton_batched_2x2` formulation the
        tests hold it to; Python floats and NumPy float64 share IEEE-754
        double semantics and only identical subexpressions are shared
        (``u_sq * v``, ``2.0 * u``, ``(2.0 * u) * v``), none regrouped,
        so values, work counts and the residual ``max|new - old|`` taken
        in the same pass are bit-identical.  Returns ``(new, work,
        residuals, (their max, the work's sum), failure)`` — the
        reductions exact: residuals are +0.0 or positive, work counts are
        integers — where ``failure`` is ``None`` or ``(failed components,
        step)`` at the lowest step a component failed; a failing
        component's arrays hold what it did before it failed.
        """
        steps = self.n_steps
        dt, c = self.dt, self.c
        opts = self.newton
        tol, max_iter, damping = opts.tol, opts.max_iter, opts.damping
        neg_tol = -tol
        two_c = 2.0 * c
        new = ext[1:-1].copy()  # skipped components keep their trajectories
        n = new.shape[0]
        work = np.ones(n)  # a skipped component still pays the skip test
        residuals = np.zeros(n)

        order = range(n) if active is None else active.tolist()
        top = 0.0
        total = n - len(order)  # a skipped component's one unit
        # Every row is read when no component is skipped: one conversion.
        # Otherwise only the three rows of each active component (a
        # 290-row chain must not pay `.tolist()` of the whole buffer for
        # its 3 active components).
        rows = ext.tolist() if active is None else None
        failures: dict[int, int] = {}  # step -> failed component count
        for j in order:
            (ult, vlt), (uu, vv), (urt, vrt) = (
                rows[j : j + 3] if rows else ext[j : j + 3].tolist()
            )
            # Copies made at the first changed step: `uu` / `vv` stay
            # the old values the residual is measured against.
            nu = nv = None
            first = 0
            res = 0.0
            w = 0
            up = uu[0]
            vp = vv[0]
            for k in range(1, steps + 1):
                ul = ult[k]
                ur = urt[k]
                vl = vlt[k]
                vr = vrt[k]
                u = uu[k]  # initial guess: previous sweep's value
                v = vv[k]
                p = 0
                while True:
                    u_sq = u * u
                    u_sq_v = u_sq * v
                    two_u = 2.0 * u
                    f1 = u - up - dt * (
                        1.0 + u_sq_v - 4.0 * u + c * (ul - two_u + ur)
                    )
                    f2 = v - vp - dt * (
                        3.0 * u - u_sq_v + c * (vl - 2.0 * v + vr)
                    )
                    converged = (
                        neg_tol <= f1 <= tol and neg_tol <= f2 <= tol
                    )
                    if converged or p == max_iter:
                        break
                    two_uv = two_u * v
                    j11 = 1.0 - dt * (two_uv - 4.0 - two_c)
                    j12 = -dt * u_sq
                    j21 = -dt * (3.0 - two_uv)
                    j22 = 1.0 + dt * (u_sq + two_c)
                    det = j11 * j22 - j12 * j21
                    if -1e-300 < det < 1e-300:
                        break  # singular Jacobian: stop, unconverged
                    u = u - damping * ((j22 * f1 - j12 * f2) / det)
                    v = v - damping * ((j11 * f2 - j21 * f1) / det)
                    p += 1
                if not converged:
                    # Later steps cannot lower the first failing one.
                    failures[k] = failures.get(k, 0) + 1
                    break
                w += p or 1
                up = u
                vp = v
                if p:
                    if nu is None:
                        first = k
                        nu = uu.copy()
                        nv = vv.copy()
                    nu[k] = u
                    nv[k] = v
                    d = u - uu[k]
                    if d < 0.0:
                        d = -d
                    if d > res:
                        res = d
                    d = v - vv[k]
                    if d < 0.0:
                        d = -d
                    if d > res:
                        res = d
            work[j] = w
            total += w
            if nu is not None:
                new[j, 0, first:] = nu[first:]
                new[j, 1, first:] = nv[first:]
                residuals[j] = res
                if res > top:
                    top = res
        k = min(failures, default=0)
        failure = (failures[k], k) if failures else None
        return new, work, residuals, (top, float(total)), failure

    # ------------------------------------------------------------------
    # Migration: the block moves as in the base class, and the skip
    # bookkeeping of a block that changed shape is recomputed from scratch
    # ------------------------------------------------------------------
    def copy_state(self, state: BrusselatorState) -> BrusselatorState:
        return BrusselatorState(
            state.lo,
            state.traj.copy(),
            *(
                None if a is None else a.copy()
                for a in (
                    state.prev_res,
                    state.skip_streak,
                    state.last_left_halo,
                    state.last_right_halo,
                )
            ),
        )

    def split(self, state: BrusselatorState, n: int, side: str) -> np.ndarray:
        payload = super().split(state, n, side)
        _invalidate_skip_state(state)
        return payload

    def merge(self, state: BrusselatorState, payload: np.ndarray, side: str) -> None:
        super().merge(state, payload, side)
        _invalidate_skip_state(state)

    # ------------------------------------------------------------------
    def reference_solution(self) -> np.ndarray:
        """Sequential solution of the fully-coupled implicit Euler system.

        Returns an array of shape ``(n_components, 2, n_steps + 1)``
        directly comparable to the assembled parallel trajectories.  This
        is the exact fixed point of the waveform relaxation on the same
        grid (up to Newton tolerance).
        """
        from repro.numerics.euler import implicit_euler_banded

        n, c = self.n_components, self.c

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            u, v = y[0::2], y[1::2]
            u_pad = np.concatenate([[U_BOUNDARY], u, [U_BOUNDARY]])
            v_pad = np.concatenate([[V_BOUNDARY], v, [V_BOUNDARY]])
            lap_u = u_pad[:-2] - 2.0 * u + u_pad[2:]
            lap_v = v_pad[:-2] - 2.0 * v + v_pad[2:]
            du = 1.0 + u * u * v - 4.0 * u + c * lap_u
            dv = 3.0 * u - u * u * v + c * lap_v
            out = np.empty_like(y)
            out[0::2], out[1::2] = du, dv
            return out

        def jac_banded(t: float, y: np.ndarray) -> np.ndarray:
            # Interleaved ordering (u1, v1, u2, v2, ...): kl = ku = 2.
            u, v = y[0::2], y[1::2]
            bands = np.zeros((5, 2 * n))
            # Main diagonal.
            bands[2, 0::2] = 2.0 * u * v - 4.0 - 2.0 * c  # ∂du/∂u
            bands[2, 1::2] = -u * u - 2.0 * c  # ∂dv/∂v
            # +1 super-diagonal: ∂du_i/∂v_i at column of v_i.
            bands[1, 1::2] = u * u
            # -1 sub-diagonal: ∂dv_i/∂u_i at column of u_i.
            bands[3, 0::2] = 3.0 - 2.0 * u * v
            # ±2: diffusion coupling u_i <-> u_{i±1}, v_i <-> v_{i±1}.
            bands[0, 2:] = c  # ∂d(·)_i/∂(·)_{i+1}
            bands[4, :-2] = c  # ∂d(·)_i/∂(·)_{i-1}
            return bands

        y0 = self.initial_values(0, n).ravel()  # already interleaved (u, v)
        t_grid = np.linspace(0.0, self.t_end, self.n_steps + 1)
        traj = implicit_euler_banded(
            rhs, jac_banded, 2, 2, y0, t_grid, newton_tol=self.newton.tol
        )  # (n_steps + 1, 2n)
        out = np.empty((n, 2, self.n_steps + 1))
        out[:, 0, :] = traj[:, 0::2].T
        out[:, 1, :] = traj[:, 1::2].T
        return out
