"""Batched Newton for many independent 2x2 nonlinear systems.

The waveform-relaxation formulation of the Brusselator (Section 5 of the
paper) solves, at every time step, one small nonlinear system per
*spatial component pair* ``(u_i, v_i)`` with the neighbouring components
frozen at the previous outer iterate.  Those systems are independent, so
we solve them all at once with vectorised Newton and an *active mask*:

* components whose residual already satisfies the tolerance drop out,
* the per-component iteration count is returned as the **work** measure.

The per-component counts are the heart of the reproduction's cost model:
a component whose trajectory has converged verifies in one iteration,
an active one takes several, making the per-sweep cost proportional to
how much of the local subdomain is still evolving.

The Brusselator's sweep runs its own per-(component, step) loop with
this kernel's arithmetic and bookkeeping: compiled
(``repro/problems/_sweeps.c``) where ``cc`` builds it, and on Python
floats (``BrusselatorProblem._sweep_scalar``, the compiled loop's
reference) elsewhere.  No product path calls this function; the tests
hold both sweep paths to it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NewtonOptions",
    "NewtonResult",
    "newton_batched_2x2",
]

#: f(u, v) -> (F1, F2, J11, J12, J21, J22), all arrays of u's shape.
Residual2x2 = Callable[
    [np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


@dataclass(slots=True, frozen=True)
class NewtonOptions:
    """Newton solver configuration.

    Attributes
    ----------
    tol:
        Convergence test on ``max(|F1|, |F2|)`` per component.
    max_iter:
        Hard cap; exceeding it marks the component as not converged.
    damping:
        Step multiplier in ``(0, 1]`` (1 = full Newton).
    """

    tol: float = 1e-10
    max_iter: int = 25
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")


@dataclass(slots=True)
class NewtonResult:
    """Outcome of a batched solve.

    Attributes
    ----------
    u, v:
        Solution arrays.
    iterations:
        Per-component Newton iterations performed (work units).
    converged:
        Per-component convergence mask.
    """

    u: np.ndarray
    v: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    @property
    def total_work(self) -> float:
        return float(self.iterations.sum())

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def newton_batched_2x2(
    f: Residual2x2,
    u0: np.ndarray,
    v0: np.ndarray,
    options: NewtonOptions | None = None,
) -> NewtonResult:
    """Solve a batch of independent 2x2 systems ``F(u_j, v_j) = 0``.

    Parameters
    ----------
    f:
        Vectorised residual+Jacobian callback, always called on the
        *full* batch as ``f(u, v)`` (converged components included) —
        the active mask only controls which components get updated and
        charged work.
    u0, v0:
        Initial guesses (not modified).
    options:
        Solver configuration; ``None`` means ``NewtonOptions()``.

    Notes
    -----
    The 2x2 Newton step is computed with the explicit inverse
    ``J⁻¹ = adj(J)/det(J)``.  Singular Jacobians (``|det|`` below 1e-300)
    mark the component failed rather than raising, so one pathological
    component cannot abort a whole sweep; callers inspect ``converged``.

    Invariant exploited throughout: every still-active component has
    stepped in every previous pass, so on pass ``p`` each active
    component's iteration count is exactly ``p``.  Counts are therefore
    *assigned* (``p`` at exit, ``max_iter`` at budget exhaustion)
    instead of incremented per pass — same numbers, fewer array ops.
    """
    if options is None:
        options = NewtonOptions()
    u = np.array(u0, dtype=float, copy=True)
    v = np.array(v0, dtype=float, copy=True)
    if u.shape != v.shape:
        raise ValueError(f"u0 and v0 must have equal shapes, {u.shape} vs {v.shape}")
    n = u.shape[0]
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)

    tol = options.tol
    max_iter = options.max_iter
    damping = options.damping

    n_active = n
    active: np.ndarray | None = None  # full-batch mask, created on first exit

    # Single f evaluation per loop pass: the residual computed here both
    # finishes the previous step's convergence test and feeds this
    # pass's Newton update.  One extra pass (max_iter + 1) lets the last
    # permitted step still be verified.
    for p in range(max_iter + 1):
        if n_active == 0:
            break
        f1, f2, j11, j12, j21, j22 = f(u, v)
        res_ok = np.maximum(np.abs(f1), np.abs(f2)) <= tol
        newly = res_ok if active is None else (res_ok & active)
        c = int(np.count_nonzero(newly))
        if c:
            converged |= newly
            iterations[newly] = p
            n_active -= c
            if n_active == 0:
                break
            if active is None:
                active = ~newly
            else:
                active &= ~newly
        if p == max_iter:
            break
        det = j11 * j22 - j12 * j21
        singular = np.abs(det) < 1e-300
        n_sing = int(np.count_nonzero(singular))
        if n_sing:
            if active is None:
                active = np.ones(n, dtype=bool)
            sing_active = singular & active
            cs = int(np.count_nonzero(sing_active))
            if cs:
                iterations[sing_active] = p
                active &= ~singular
                n_active -= cs
                if n_active == 0:
                    break
            det = np.where(singular, 1.0, det)
        du = (j22 * f1 - j12 * f2) / det
        dv = (j11 * f2 - j21 * f1) / det
        if active is None:
            u -= damping * du
            v -= damping * dv
        else:
            u = np.where(active, u - damping * du, u)
            v = np.where(active, v - damping * dv, v)

    if n_active:
        # Loop ended with the budget exhausted: survivors stepped in all
        # max_iter passes.
        if active is not None:
            iterations[active] = max_iter
        else:
            iterations[:] = max_iter

    # Every component is charged at least one work unit per sweep: even a
    # converged component had its residual evaluated (the "verification"
    # cost that keeps converged regions cheap but not free).
    np.maximum(iterations, 1, out=iterations)
    return NewtonResult(u=u, v=v, iterations=iterations, converged=converged)

