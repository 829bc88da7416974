"""A controllable synthetic contraction problem.

For the large parameter sweeps (Figure 5 goes to ~100 processors) the
full Brusselator numerics are unnecessarily expensive; what the
experiments measure is the *interaction* between per-component activity,
per-component cost and the load balancer.  This problem models exactly
that, in closed form:

* component ``j`` carries an error ``e_j`` (distance to the fixed
  point), contracted each sweep by a per-component rate ``r_j``;
* spatial coupling mixes in the neighbours' errors with factor ``γ < 1``
  (a weighted-max-norm contraction, so asynchronous iterations converge
  by El Tarazi's theorem);
* sweep cost per component is ``base_cost`` plus ``active_cost`` while
  ``e_j`` exceeds ``active_threshold`` — the idealised version of the
  Brusselator's "converged components verify in one Newton iteration".

A *hard region* (components with ``r_j`` close to 1) reproduces the
paper's observation that "the progression towards the solution is not
the same for all the components": without load balancing the ranks
owning the hard region do expensive sweeps long after everyone else has
converged, which is precisely the imbalance the residual-driven
balancer removes.
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
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = ["SyntheticProblem"]

class SyntheticProblem(Problem):
    """Per-component contraction with activity-dependent cost: a block
    holds one error per component, ``traj`` of shape ``(n,)``.

    Parameters
    ----------
    rates:
        Per-component contraction rates, each in ``[0, 1)``; length
        defines ``n_components``.
    coupling:
        Neighbour mixing factor ``γ`` in ``[0, 1)``.
    init_error:
        Initial error of every component.
    active_threshold:
        Errors above this make a component "active" (expensive).
    base_cost, active_cost:
        Work units per component per sweep: ``base`` always, plus
        ``active`` while the component is active.
    """

    name = "synthetic"
    component_shape = ()

    def __init__(
        self,
        rates: np.ndarray,
        *,
        coupling: float = 0.3,
        init_error: float = 1.0,
        active_threshold: float = 1e-4,
        base_cost: float = 1.0,
        active_cost: float = 4.0,
    ) -> None:
        self.rates = np.asarray(rates, dtype=float, order="C")
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-D array")
        if not ((self.rates >= 0) & (self.rates < 1)).all():
            raise ValueError("all rates must lie in [0, 1)")
        self.n_components = int(self.rates.size)
        self.coupling = check_in_range("coupling", coupling, 0.0, 1.0 - 1e-12)
        self.init_error = check_positive("init_error", init_error)
        self.active_threshold = check_positive("active_threshold", active_threshold)
        self.base_cost = check_positive("base_cost", base_cost)
        self.active_cost = float(check_non_negative("active_cost", active_cost))

    @classmethod
    def with_hard_region(
        cls,
        n_components: int,
        *,
        easy_rate: float = 0.5,
        hard_rate: float = 0.97,
        region: tuple[float, float] = (0.4, 0.6),
        **kwargs,
    ) -> "SyntheticProblem":
        """Uniform rates except a hard (slowly converging) sub-interval.

        ``region`` is in relative coordinates of the component index
        space, e.g. ``(0.4, 0.6)`` makes the middle fifth hard.
        """
        lo, hi = region
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"invalid region {region!r}")
        rates = np.full(n_components, easy_rate, dtype=float)
        idx = np.arange(n_components) / max(n_components - 1, 1)
        rates[(idx >= lo) & (idx < hi)] = hard_rate
        return cls(rates, **kwargs)

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def initial_traj(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.init_error)

    def iterate(
        self,
        state: BlockState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        return self._sweep(_compiled.synthetic, state, left_halo, right_halo)

    def _sweep(
        self, kernel, state: BlockState, left_halo, right_halo
    ) -> IterationResult:
        """:meth:`iterate` on the compiled ``kernel``
        (:mod:`repro.problems._compiled`: this sweep as one loop, its
        work sum in NumPy's pairwise order), or in NumPy when it is None:
        bit for bit the same."""
        # The synthetic problem's residual IS the true error (idealised
        # estimator; see module docstring).
        n = state.traj.shape[0]
        if kernel is not None:
            out = np.empty(3 * n)
            top, total = kernel.synthetic(
                self.rates, state.lo, state.traj, left_halo, right_halo, out,
                self.coupling, self.active_threshold,
                self.base_cost, self.base_cost + self.active_cost,
            )
            state.traj = values = out[:n]
            if top is None:
                top = float(values.max())
            return IterationResult(out[n : 2 * n], out[2 * n :], top, total)
        # Elementwise throughout, so a block's slice of a longer sweep is
        # bit-equal to sweeping the block alone.
        e = state.traj
        ext = padded(e, left_halo, right_halo)
        neighbour = np.maximum(ext[:-2], ext[2:])
        rates = self.rates[state.lo : state.lo + n]
        state.traj = new = np.maximum(rates * e, self.coupling * neighbour)
        work = np.where(
            e > self.active_threshold,
            self.base_cost + self.active_cost,
            self.base_cost,
        )
        return IterationResult.from_arrays(new.copy(), work)

    # ------------------------------------------------------------------
    # Halos
    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        if global_index < 0 or global_index >= self.n_components:
            return np.zeros(1)  # domain edges are exact (converged)
        return np.full(1, self.init_error)
